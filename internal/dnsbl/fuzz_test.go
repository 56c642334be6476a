package dnsbl

import (
	"bytes"
	"testing"
	"time"

	"unclean/internal/netaddr"
	"unclean/internal/obs/flight"
)

// FuzzServeMsg pushes arbitrary bytes through the shard loop's per-slot
// serve path on a socket-less shard with the analytics tap on. No panic
// may escape serveMsg; every packet the fast parser accepts must get a
// response byte-identical to the slow path's (handle); and answering an
// accepted packet must not allocate. The seed corpus in
// testdata/fuzz/FuzzServeMsg covers the fast shape and each way out of
// it.
func FuzzServeMsg(f *testing.F) {
	srv, err := NewServer("bl.shard.example", shardTestList(), time.Minute)
	if err != nil {
		f.Fatal(err)
	}
	srv.EnableAnalytics(AnalyticsConfig{SampleN: 1})
	srv.SetFlightRecorder(flight.New(64))
	sh := srv.newShard(0, nil, ShardConfig{}.withDefaults(1))
	sh.nowMS = uint32(time.Now().UnixMilli())
	m := &sh.msgs[0]
	m.client = netaddr.MakeAddr(198, 51, 100, 7)

	f.Fuzz(func(t *testing.T, pkt []byte) {
		if len(pkt) > len(m.in) {
			pkt = pkt[:len(m.in)]
		}
		cl := srv.list.Load()
		serve := func() {
			m.inN = copy(m.in, pkt)
			srv.serveMsg(sh, m, cl)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("serveMsg panicked on %x: %v", pkt, r)
				}
			}()
			serve()
		}()
		if _, _, _, ok := parseFastQuery(pkt, srv.zoneWire); !ok {
			return
		}
		var ev flight.Event
		if want := srv.handle(pkt, srv.maxUDP, &ev); !bytes.Equal(m.out[:m.outN], want) {
			t.Fatalf("fast path diverges from handle on %x:\n fast %x\n slow %x", pkt, m.out[:m.outN], want)
		}
		if allocs := testing.AllocsPerRun(16, serve); allocs != 0 {
			t.Fatalf("fast path allocates %.1f per packet on %x", allocs, pkt)
		}
	})
}
