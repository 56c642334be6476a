package dnsbl

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strconv"
	"testing"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/netaddr"
	"unclean/internal/obs/flight"
)

// shardTestList lists three /24s with distinct reasons, so verdicts
// carry distinguishable return codes.
func shardTestList() *blocklist.Trie {
	list := &blocklist.Trie{}
	list.Insert(netaddr.MustParseBlock("10.1.1.0/24"), "bot")
	list.Insert(netaddr.MustParseBlock("10.2.2.0/24"), "spam")
	list.Insert(netaddr.MustParseBlock("10.3.3.0/24"), "misc")
	return list
}

// TestListenShards binds a shard group and checks every socket landed on
// the same port (SO_REUSEPORT platforms get several, others one).
func TestListenShards(t *testing.T) {
	conns, err := ListenShards("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	if supportsReusePort {
		if len(conns) != 3 {
			t.Fatalf("got %d conns, want 3 (SO_REUSEPORT supported)", len(conns))
		}
	} else if len(conns) != 1 {
		t.Fatalf("got %d conns, want 1 on a non-reuseport platform", len(conns))
	}
	addr := conns[0].LocalAddr().String()
	for i, c := range conns {
		if c.LocalAddr().String() != addr {
			t.Errorf("conn %d bound %s, want %s", i, c.LocalAddr(), addr)
		}
	}
}

// TestServeConnsEndToEnd runs the sharded server over real SO_REUSEPORT
// sockets, drives it with the ordinary client, and checks answers,
// counter rollup, shard snapshots, and graceful shutdown.
func TestServeConnsEndToEnd(t *testing.T) {
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	conns, err := ListenShards("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	addr := conns[0].LocalAddr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeConns(ctx, conns, ShardConfig{}) }()

	probes := []struct {
		addr   string
		listed bool
		code   netaddr.Addr
	}{
		{"10.1.1.9", true, CodeBot},
		{"10.2.2.200", true, CodeSpam},
		{"10.3.3.3", true, CodeGeneric},
		{"10.4.4.4", false, 0},
		{"192.0.2.1", false, 0},
	}
	for _, pr := range probes {
		listed, code, err := Lookup(addr, "bl.shard.example", netaddr.MustParseAddr(pr.addr), 2*time.Second)
		if err != nil {
			t.Fatalf("lookup %s: %v", pr.addr, err)
		}
		if listed != pr.listed || (listed && code != pr.code) {
			t.Errorf("lookup %s = listed=%v code=%s, want listed=%v code=%s",
				pr.addr, listed, code, pr.listed, pr.code)
		}
	}

	st := srv.Snapshot()
	if st.Queries < uint64(len(probes)) {
		t.Errorf("Queries = %d, want >= %d", st.Queries, len(probes))
	}
	if st.Hits < 3 {
		t.Errorf("Hits = %d, want >= 3", st.Hits)
	}
	ss := srv.ShardSnapshots()
	if ss == nil {
		t.Fatal("ShardSnapshots = nil after ServeConns")
	}
	var pkts, fast uint64
	for _, s := range ss {
		pkts += s.Packets
		fast += s.FastPath
	}
	if pkts < uint64(len(probes)) || fast != pkts {
		t.Errorf("shard rollup: packets=%d fastpath=%d, want >= %d and equal", pkts, fast, len(probes))
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ServeConns: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConns did not exit on cancellation")
	}
}

// TestFastSlowCodecEquivalence is the differential test holding the
// zero-copy fast path to byte-equality with the allocating slow path,
// across listed/unlisted addresses, reasons, RD values, query IDs,
// mixed-case names, and the TC-truncation threshold.
func TestFastSlowCodecEquivalence(t *testing.T) {
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{"10.1.1.9", "10.2.2.1", "10.3.3.255", "10.4.4.4", "0.0.0.0", "255.255.255.255", "192.0.2.55"}
	for _, maxUDP := range []int{maxMessage, 40} {
		for _, a := range addrs {
			for _, rd := range []bool{false, true} {
				for _, upper := range []bool{false, true} {
					name := QueryName(netaddr.MustParseAddr(a), "bl.shard.example")
					if upper {
						name = QueryName(netaddr.MustParseAddr(a), "BL.Shard.EXAMPLE")
					}
					q := &Message{ID: 0x1234, RecursionDesired: rd,
						Questions: []Question{{Name: name, Type: TypeA, Class: ClassIN}}}
					pkt, err := q.Encode()
					if err != nil {
						t.Fatal(err)
					}

					qa, qlen, qrd, ok := parseFastQuery(pkt, srv.zoneWire)
					if !ok {
						t.Fatalf("fast path rejected canonical query for %s (upper=%v)", a, upper)
					}
					if qrd != rd || qa != netaddr.MustParseAddr(a) {
						t.Fatalf("fast parse %s: addr=%s rd=%v, want %s/%v", a, qa, qrd, a, rd)
					}
					cl := srv.list.Load()
					entry, listed := cl.matcher.Lookup(qa)
					var code netaddr.Addr
					if listed {
						code = codeFor(entry.Reason)
					}
					var out [outSlotSize]byte
					n := encodeFastResponse(out[:], pkt, qlen, listed, code, srv.ttl, maxUDP)

					var ev flight.Event
					slow := srv.handle(pkt, maxUDP, &ev)
					if slow == nil {
						t.Fatalf("slow path dropped canonical query for %s", a)
					}
					if !bytes.Equal(out[:n], slow) {
						t.Errorf("codec divergence for %s (rd=%v upper=%v maxUDP=%d):\n fast %x\n slow %x",
							a, rd, upper, maxUDP, out[:n], slow)
					}
				}
			}
		}
	}
}

// compressedQuery builds a query for addr whose question name ends in a
// compression pointer to a copy of the zone placed after the question.
// Decode follows the pointer, so the slow path answers it; the fast
// parser, which reads names in place, must reject it.
func compressedQuery(id uint16, addr netaddr.Addr, zone string) []byte {
	o0, o1, o2, o3 := addr.Octets()
	pkt := []byte{byte(id >> 8), byte(id), 0x01, 0, 0, 1, 0, 0, 0, 0, 0, 0}
	for _, o := range []byte{o3, o2, o1, o0} {
		label := strconv.Itoa(int(o))
		pkt = append(pkt, byte(len(label)))
		pkt = append(pkt, label...)
	}
	zoneAt := len(pkt) + 2 + 4 // after the pointer and type/class
	pkt = append(pkt, 0xc0|byte(zoneAt>>8), byte(zoneAt), 0, TypeA, 0, ClassIN)
	zw, err := encodeName(zone)
	if err != nil {
		panic(err)
	}
	return append(pkt, zw...)
}

// TestFastParseRejectsNonFastShapes: everything the zero-copy parser
// cannot prove is the canonical shape must fall to the slow path, never
// misparse.
func TestFastParseRejectsNonFastShapes(t *testing.T) {
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(mut func(m *Message)) []byte {
		m := &Message{ID: 9, Questions: []Question{{
			Name: QueryName(netaddr.MustParseAddr("10.1.1.9"), "bl.shard.example"),
			Type: TypeA, Class: ClassIN}}}
		mut(m)
		pkt, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return pkt
	}
	cases := map[string][]byte{
		"response bit":  mk(func(m *Message) { m.Response = true }),
		"txt qtype":     mk(func(m *Message) { m.Questions[0].Type = TypeTXT }),
		"wrong zone":    mk(func(m *Message) { m.Questions[0].Name = "9.1.1.10.bl.other.example" }),
		"three labels":  mk(func(m *Message) { m.Questions[0].Name = "1.1.10.bl.shard.example" }),
		"octet too big": mk(func(m *Message) { m.Questions[0].Name = "9.1.1.256.bl.shard.example" }),
		"leading zero":  mk(func(m *Message) { m.Questions[0].Name = "09.1.1.10.bl.shard.example" }),
		"two questions": mk(func(m *Message) { m.Questions = append(m.Questions, m.Questions[0]) }),
		"compressed":    compressedQuery(9, netaddr.MustParseAddr("10.1.1.9"), "bl.shard.example"),
		"empty":         {},
		"short header":  {0, 1, 2},
	}
	for name, pkt := range cases {
		if _, _, _, ok := parseFastQuery(pkt, srv.zoneWire); ok {
			t.Errorf("fast path accepted %s", name)
		}
	}
}

// TestVerdictCacheGenerationSwap drives one shard by hand through a
// blocklist reload and asserts the cache serves repeats within a
// generation but never across one — the no-stale-verdicts invariant.
func TestVerdictCacheGenerationSwap(t *testing.T) {
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	sh := srv.newShard(0, nil, ShardConfig{}.withDefaults(1))
	q := encodeQuery(t, 7, "10.1.1.9", "bl.shard.example")

	ask := func() (bool, netaddr.Addr) {
		t.Helper()
		m := &sh.msgs[0]
		m.inN = copy(m.in, q)
		srv.serveMsg(sh, m, srv.list.Load())
		if m.outN == 0 {
			t.Fatal("no response encoded")
		}
		resp, err := Decode(m.out[:m.outN])
		if err != nil {
			t.Fatal(err)
		}
		if resp.RCode == RCodeNXDomain {
			return false, 0
		}
		if len(resp.Answers) != 1 {
			t.Fatalf("response has %d answers", len(resp.Answers))
		}
		d := resp.Answers[0].Data
		return true, netaddr.MakeAddr(d[0], d[1], d[2], d[3])
	}

	if listed, code := ask(); !listed || code != CodeBot {
		t.Fatalf("gen1 first ask: listed=%v code=%s, want bot", listed, code)
	}
	if hits := sh.cacheHits.Value(); hits != 0 {
		t.Fatalf("cold cache reported %d hits", hits)
	}
	if listed, code := ask(); !listed || code != CodeBot {
		t.Fatalf("gen1 second ask: listed=%v code=%s", listed, code)
	}
	if hits := sh.cacheHits.Value(); hits != 1 {
		t.Fatalf("warm same-generation ask: %d cache hits, want 1", hits)
	}

	// Reload 1: the block vanishes. The cached "bot" verdict is one
	// generation old and must not be served.
	gone := &blocklist.Trie{}
	gone.Insert(netaddr.MustParseBlock("10.9.9.0/24"), "bot")
	srv.SetList(gone)
	if listed, _ := ask(); listed {
		t.Fatal("stale-generation cache hit: delisted address still listed")
	}
	if hits := sh.cacheHits.Value(); hits != 1 {
		t.Fatalf("cross-generation ask used the cache: %d hits", hits)
	}

	// Reload 2: relisted under a different reason; the gen-2 "miss"
	// entry must not be served either.
	relisted := &blocklist.Trie{}
	relisted.Insert(netaddr.MustParseBlock("10.1.1.0/24"), "spam")
	srv.SetList(relisted)
	if listed, code := ask(); !listed || code != CodeSpam {
		t.Fatalf("after relist: listed=%v code=%s, want spam", listed, code)
	}
	// And within generation 3 the new verdict caches normally.
	if listed, code := ask(); !listed || code != CodeSpam {
		t.Fatalf("gen3 warm ask: listed=%v code=%s", listed, code)
	}
	if hits := sh.cacheHits.Value(); hits != 2 {
		t.Fatalf("gen3 warm ask: %d cache hits, want 2", hits)
	}
}

// TestShardedTruncationAndTCPRetry forces UDP truncation with a small
// -max-udp and checks the full TC path end to end: the sharded UDP
// server answers TC, the client retries over TCP against ServeTCP, and
// the verdict comes back complete.
func TestShardedTruncationAndTCPRetry(t *testing.T) {
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetMaxUDPSize(50) // hit answers (~62 bytes) truncate; the question echo fits

	conns, err := ListenShards("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	addr := conns[0].LocalAddr().String()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	udpDone := make(chan error, 1)
	tcpDone := make(chan error, 1)
	go func() { udpDone <- srv.ServeConns(ctx, conns, ShardConfig{}) }()
	go func() { tcpDone <- srv.ServeTCP(ctx, ln) }()

	listed, code, err := Lookup(addr, "bl.shard.example", netaddr.MustParseAddr("10.2.2.9"), 2*time.Second)
	if err != nil {
		t.Fatalf("truncated lookup: %v", err)
	}
	if !listed || code != CodeSpam {
		t.Fatalf("truncated lookup = listed=%v code=%s, want spam", listed, code)
	}
	// Misses fit under the shrunk limit and must not detour to TCP.
	listed, _, err = Lookup(addr, "bl.shard.example", netaddr.MustParseAddr("192.0.2.1"), 2*time.Second)
	if err != nil || listed {
		t.Fatalf("miss lookup = listed=%v err=%v", listed, err)
	}

	cancel()
	for name, ch := range map[string]chan error{"udp": udpDone, "tcp": tcpDone} {
		select {
		case err := <-ch:
			if err != nil {
				t.Errorf("%s serve: %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s serve did not exit on cancellation", name)
		}
	}
}

// TestServeTCPDirect speaks the RFC 1035 §4.2.2 framing by hand:
// several queries on one connection, then a framing violation that must
// drop the connection without killing the listener.
func TestServeTCPDirect(t *testing.T) {
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeTCP(ctx, ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	for i, probe := range []string{"10.1.1.9", "10.4.4.4"} {
		pkt := encodeQuery(t, uint16(i+1), probe, "bl.shard.example")
		framed := append([]byte{byte(len(pkt) >> 8), byte(len(pkt))}, pkt...)
		if _, err := conn.Write(framed); err != nil {
			t.Fatal(err)
		}
		var lenb [2]byte
		if _, err := readFull(conn, lenb[:]); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		n := int(lenb[0])<<8 | int(lenb[1])
		buf := make([]byte, n)
		if _, err := readFull(conn, buf); err != nil {
			t.Fatal(err)
		}
		resp, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID != uint16(i+1) || !resp.Response || resp.Truncated {
			t.Fatalf("query %d: bad response header %+v", i, resp)
		}
		wantListed := i == 0
		if gotListed := resp.RCode != RCodeNXDomain; gotListed != wantListed {
			t.Fatalf("query %d: listed=%v, want %v", i, gotListed, wantListed)
		}
	}
	// Framing violation: a zero-length frame ends the connection.
	if _, err := conn.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}
	var one [1]byte
	if _, err := conn.Read(one[:]); err == nil {
		t.Fatal("connection survived a framing violation")
	}

	// The listener is still alive for new connections.
	c2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c2.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ServeTCP: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeTCP did not exit on cancellation")
	}
}

// readFull is io.ReadFull without the import dance in assertions.
func readFull(conn net.Conn, buf []byte) (int, error) {
	read := 0
	for read < len(buf) {
		n, err := conn.Read(buf[read:])
		read += n
		if err != nil {
			return read, err
		}
	}
	return read, nil
}

// TestShardConfigDefaults pins the zero-value and clamping behavior the
// docs promise.
func TestShardConfigDefaults(t *testing.T) {
	cases := []struct {
		in    ShardConfig
		conns int
		want  ShardConfig
	}{
		{ShardConfig{}, 4, ShardConfig{Shards: 4, Batch: defaultBatch, CacheBits: defaultCacheBits}},
		{ShardConfig{Shards: 2, Batch: 9999, CacheBits: 30}, 1, ShardConfig{Shards: 2, Batch: maxBatch, CacheBits: maxCacheBits}},
		{ShardConfig{CacheBits: -1}, 1, ShardConfig{Shards: 1, Batch: defaultBatch, CacheBits: -1}},
	}
	for i, c := range cases {
		if got := c.in.withDefaults(c.conns); got != c.want {
			t.Errorf("case %d: withDefaults = %+v, want %+v", i, got, c.want)
		}
	}
}

// TestServeConnsSharesOneConn runs more shards than sockets (the
// portable fallback topology) and checks the loops coexist on a shared
// conn.
func TestServeConnsSharesOneConn(t *testing.T) {
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- srv.ServeConns(ctx, []net.PacketConn{conn}, ShardConfig{Shards: 3, Batch: 4})
	}()
	for i := 0; i < 20; i++ {
		listed, _, err := Lookup(conn.LocalAddr().String(), "bl.shard.example",
			netaddr.MustParseAddr(fmt.Sprintf("10.1.1.%d", i+1)), 2*time.Second)
		if err != nil || !listed {
			t.Fatalf("shared-conn lookup %d: listed=%v err=%v", i, listed, err)
		}
	}
	if ss := srv.ShardSnapshots(); len(ss) != 3 {
		t.Errorf("got %d shard snapshots, want 3", len(ss))
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ServeConns: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConns did not exit on cancellation")
	}
}

// scriptBatcher is an in-memory batchIO that hands runShard one scripted
// batch per ReadBatch, records how many responses each WriteBatch
// carried, and reports the conn closed when the script runs out.
type scriptBatcher struct {
	batches [][][]byte
	sent    []int
}

func (b *scriptBatcher) ReadBatch(ms []batchMsg) (int, error) {
	if len(b.batches) == 0 {
		return 0, net.ErrClosed
	}
	batch := b.batches[0]
	b.batches = b.batches[1:]
	for i, pkt := range batch {
		ms[i].inN = copy(ms[i].in, pkt)
		ms[i].client = netaddr.MakeAddr(198, 51, 100, byte(i))
	}
	return len(batch), nil
}

func (b *scriptBatcher) WriteBatch(ms []batchMsg) error {
	n := 0
	for i := range ms {
		if ms[i].outN > 0 {
			n++
		}
	}
	b.sent = append(b.sent, n)
	return nil
}

func (b *scriptBatcher) LocalAddr() net.Addr { return nil }
func (b *scriptBatcher) Close() error        { return nil }

// TestShardPanicDropsOnlyThatDatagram injects panics into one fast-path
// slot and one slow-path slot of a batch: those two datagrams are
// dropped (counted in Panics and Dropped, recorded as panic events, bad
// for the SLO), the rest of the batch is still answered, and the shard
// goes on to serve the next batch in full.
func TestShardPanicDropsOnlyThatDatagram(t *testing.T) {
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.New(256)
	srv.SetFlightRecorder(rec)
	calls := 0
	srv.handleHook = func() {
		calls++
		if calls == 2 || calls == 5 {
			panic("injected request panic")
		}
	}
	fast := encodeQuery(t, 1, "10.1.1.9", "bl.shard.example")
	txt := mustEncode(t, &Message{ID: 2, Questions: []Question{{
		Name: QueryName(netaddr.MustParseAddr("10.1.1.9"), "bl.shard.example"), Type: TypeTXT, Class: ClassIN}}})
	io := &scriptBatcher{batches: [][][]byte{
		{fast, fast, fast, fast, txt, fast}, // slot 1 (fast) and slot 4 (slow) panic
		{fast, fast, fast, fast},
	}}
	sh := srv.newShard(0, nil, ShardConfig{}.withDefaults(1))
	sh.io = io
	if err := srv.runShard(context.Background(), sh); err != nil {
		t.Fatalf("runShard: %v", err)
	}

	if len(io.sent) != 2 || io.sent[0] != 4 || io.sent[1] != 4 {
		t.Fatalf("responses per batch = %v, want [4 4]", io.sent)
	}
	st := srv.Snapshot()
	if st.Panics != 2 || st.Dropped != 2 || st.Queries != 8 {
		t.Fatalf("counters = %+v, want 2 panics, 2 dropped, 8 queries", st)
	}
	if got := sh.dropped.Value(); got != 2 {
		t.Fatalf("shard dropped = %d, want 2", got)
	}
	if bad := srv.wBad.Total(time.Minute); bad != 2 {
		t.Fatalf("SLO bad count = %d, want 2", bad)
	}
	evs := rec.Snapshot(flight.Filter{Flags: flight.FlagPanic})
	if len(evs) != 2 {
		t.Fatalf("panic events = %d, want 2: %+v", len(evs), evs)
	}
	for _, ev := range evs {
		if ev.Verdict != "panic" || ev.Flags&flight.FlagErr == 0 {
			t.Errorf("panic event = %+v, want verdict panic with the err flag", ev)
		}
	}
}

func mustEncode(t *testing.T, m *Message) []byte {
	t.Helper()
	pkt, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}
