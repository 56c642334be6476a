package dnsbl

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/netaddr"
)

// encodeQuery builds one well-formed query packet for addr.
func encodeQuery(t *testing.T, id uint16, addr, zone string) []byte {
	t.Helper()
	m := &Message{
		ID: id,
		Questions: []Question{{
			Name: QueryName(netaddr.MustParseAddr(addr), zone), Type: TypeA, Class: ClassIN,
		}},
	}
	pkt, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// serveUDP runs srv.ServeConns over conns with cfg in the background.
// stop cancels it and returns ServeConns's result, failing the test if
// it does not return within five seconds.
func serveUDP(t *testing.T, srv *Server, conns []net.PacketConn, cfg ShardConfig) (stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeConns(ctx, conns, cfg) }()
	return func() error {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("ServeConns did not return after cancel")
			return nil
		}
	}
}

// TestServeGracefulShutdownDrains cancels the context while a slowed
// shard is mid-batch with more queries queued behind it, and asserts
// the shutdown accounting: ServeConns returns nil, and every query it
// counted either left the socket or is counted Dropped (or Shed), so
// Queries - Dropped - Shed equals the responses the client receives.
// Shed stays 0 on loopback unless the kernel refuses a send.
func TestServeGracefulShutdownDrains(t *testing.T) {
	list := blocklist.FromSet(mustSet("10.1.1.1"), 24, "bot")
	conns, err := ListenShards("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("bl.example", list, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	srv.handleHook = func() { time.Sleep(2 * time.Millisecond) } // force a backlog
	stop := serveUDP(t, srv, conns, ShardConfig{Batch: 4})

	client, err := net.Dial("udp", conns[0].LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	const sent = 40
	for i := 0; i < sent; i++ {
		if _, err := client.Write(encodeQuery(t, uint16(i+1), "10.1.1.9", "bl.example")); err != nil {
			t.Fatal(err)
		}
	}
	// Let the shard work through part of the burst, then shut down.
	time.Sleep(20 * time.Millisecond)
	if err := stop(); err != nil {
		t.Fatalf("ServeConns = %v, want nil on graceful shutdown", err)
	}

	st := srv.Snapshot()
	client.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	buf := make([]byte, maxMessage)
	responses := 0
	for {
		if _, err := client.Read(buf); err != nil {
			break
		}
		responses++
	}
	if uint64(responses) != st.Queries-st.Dropped-st.Shed {
		t.Fatalf("responses=%d, counters=%+v — a counted query neither left the socket nor was counted lost", responses, st)
	}
	if st.Queries == 0 {
		t.Fatal("no queries handled at all")
	}
	t.Logf("responses=%d queries=%d dropped=%d shed=%d", responses, st.Queries, st.Dropped, st.Shed)
}

// TestServeParkedShardDrainsFlood parks the only shard inside the
// handle hook while a flood queues behind it. The flood waits in (or
// overflows) the kernel's socket buffer; the shard must not wedge: once
// released it works through the backlog and answers a fresh lookup.
// Nothing is shed, because shed counts only responses the socket
// refused, and no send failed.
func TestServeParkedShardDrainsFlood(t *testing.T) {
	list := blocklist.FromSet(mustSet("10.1.1.1"), 24, "bot")
	conns, err := ListenShards("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("bl.example", list, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var park sync.Once
	parked := make(chan struct{})
	block := make(chan struct{})
	srv.handleHook = func() {
		park.Do(func() { close(parked); <-block })
	}
	stop := serveUDP(t, srv, conns, ShardConfig{})
	addr := conns[0].LocalAddr().String()

	client, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	q := encodeQuery(t, 1, "10.1.1.9", "bl.example")
	if _, err := client.Write(q); err != nil {
		t.Fatal(err)
	}
	<-parked
	for i := 0; i < 200; i++ {
		if _, err := client.Write(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Snapshot().Queries; got != 0 {
		t.Fatalf("a parked shard counted %d queries", got)
	}
	close(block)

	// The backlog drains without further prompting...
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot().Queries < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("released shard never drained its backlog: %+v", srv.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	// ...and the shard still answers fresh queries after the storm.
	listed, code, err := Lookup(addr, "bl.example", netaddr.MustParseAddr("10.1.1.7"), 2*time.Second)
	if err != nil || !listed || code != CodeBot {
		t.Fatalf("post-flood lookup: listed=%v code=%v err=%v", listed, code, err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Snapshot(); st.Shed != 0 || st.Dropped != 0 {
		t.Fatalf("no send failed, yet shed=%d dropped=%d", st.Shed, st.Dropped)
	}
}

// TestServeRecoversFromPanics injects panics into the request path and
// asserts the daemon survives and keeps serving: each panicked request
// is counted in Panics and Dropped, and a fresh lookup still answers.
func TestServeRecoversFromPanics(t *testing.T) {
	list := blocklist.FromSet(mustSet("10.1.1.1"), 24, "bot")
	conns, err := ListenShards("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("bl.example", list, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	remaining := 5 // only the one shard goroutine runs the hook
	srv.handleHook = func() {
		if remaining > 0 {
			remaining--
			panic("injected request panic")
		}
	}
	stop := serveUDP(t, srv, conns, ShardConfig{})
	addr := conns[0].LocalAddr().String()

	client, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 5; i++ {
		if _, err := client.Write(encodeQuery(t, uint16(i+1), "10.1.1.9", "bl.example")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot().Panics < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("panicked requests not recovered: %+v", srv.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	if st := srv.Snapshot(); st.Dropped != 5 {
		t.Fatalf("Dropped = %d after 5 panics, want 5", st.Dropped)
	}
	listed, _, err := Lookup(addr, "bl.example", netaddr.MustParseAddr("10.1.1.7"), 2*time.Second)
	if err != nil || !listed {
		t.Fatalf("server dead after panics: listed=%v err=%v", listed, err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestServeCountsMalformed sends garbage and checks it lands in the
// malformed counter, not queries.
func TestServeCountsMalformed(t *testing.T) {
	list := blocklist.FromSet(mustSet("10.1.1.1"), 24, "bot")
	addr, srv, stop := startDNSBL(t, list)
	defer stop()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ {
		if _, err := conn.Write([]byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot().Malformed < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("malformed = %d, want 3", srv.Snapshot().Malformed)
		}
		time.Sleep(time.Millisecond)
	}
	if q := srv.Snapshot().Queries; q != 0 {
		t.Fatalf("garbage counted as %d queries", q)
	}
}

// TestLookupIgnoresStrayPackets verifies the client skips mismatched
// datagrams (wrong ID, non-response) and still completes the lookup.
func TestLookupIgnoresStrayPackets(t *testing.T) {
	// A fake "server" that first sends chaff, then the real answer.
	server, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	go func() {
		buf := make([]byte, maxMessage)
		n, peer, err := server.ReadFrom(buf)
		if err != nil {
			return
		}
		q, err := Decode(buf[:n])
		if err != nil {
			return
		}
		// Chaff 1: valid response, wrong ID (the spoofing scenario).
		spoof := &Message{ID: q.ID ^ 0x5555, Response: true, RCode: RCodeNXDomain,
			Questions: q.Questions}
		b, _ := spoof.Encode()
		server.WriteTo(b, peer)
		// Chaff 2: raw garbage.
		server.WriteTo([]byte{0xde, 0xad}, peer)
		// Real answer: listed.
		real := &Message{ID: q.ID, Response: true, Questions: q.Questions,
			Answers: []Answer{{Name: q.Questions[0].Name, Type: TypeA, Class: ClassIN,
				TTL: 60, Data: []byte{127, 0, 0, 3}}}}
		b, _ = real.Encode()
		server.WriteTo(b, peer)
	}()
	listed, code, err := Lookup(server.LocalAddr().String(), "bl.example",
		netaddr.MustParseAddr("10.1.1.1"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !listed || code != CodeBot {
		t.Fatalf("listed=%v code=%v, want bot listing despite chaff", listed, code)
	}
}

// TestLookupRetriesLostDatagrams drops the first attempt entirely and
// answers the second: the retry layer must hide the loss.
func TestLookupRetriesLostDatagrams(t *testing.T) {
	server, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	go func() {
		buf := make([]byte, maxMessage)
		// Swallow the first query silently.
		if _, _, err := server.ReadFrom(buf); err != nil {
			return
		}
		// Answer the second.
		n, peer, err := server.ReadFrom(buf)
		if err != nil {
			return
		}
		q, err := Decode(buf[:n])
		if err != nil {
			return
		}
		resp := &Message{ID: q.ID, Response: true, RCode: RCodeNXDomain, Questions: q.Questions}
		b, _ := resp.Encode()
		server.WriteTo(b, peer)
	}()
	listed, _, err := Lookup(server.LocalAddr().String(), "bl.example",
		netaddr.MustParseAddr("10.1.1.1"), 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if listed {
		t.Fatal("NXDomain read as listed")
	}
}

// TestQueryIDsUnpredictable: 64 consecutive IDs should not be an
// arithmetic progression (the old clock-derived IDs were).
func TestQueryIDsUnpredictable(t *testing.T) {
	ids := make([]uint16, 64)
	for i := range ids {
		id, err := queryID()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	distinct := map[uint16]bool{}
	sameDelta := 0
	for i := 1; i < len(ids); i++ {
		distinct[ids[i]] = true
		if i >= 2 && ids[i]-ids[i-1] == ids[i-1]-ids[i-2] {
			sameDelta++
		}
	}
	if len(distinct) < 32 || sameDelta > len(ids)/4 {
		t.Fatalf("query IDs look predictable: %d distinct, %d repeated deltas", len(distinct), sameDelta)
	}
}
