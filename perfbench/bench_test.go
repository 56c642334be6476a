package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"regexp"
	"testing"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/dnsbl"
	"unclean/internal/netaddr"
)

func TestHighestPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75},
		{100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
		{100000, 0.9999}, {5000000, 0.9999},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if q := highestPercentile(c.n); q > 0 && float64(c.n)*(1-q) < minBeyond-1e-9 {
			t.Errorf("n=%d: p%g leaves fewer than %d samples beyond it", c.n, 100*q, minBeyond)
		}
	}
}

func flat(n int, owed int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = owed
	}
	return out
}

func TestBacklogGrows(t *testing.T) {
	const rate = 100000.0 // 5 ms of traffic is 500 queries
	if backlogGrows(flat(80, 40), rate) {
		t.Error("a flat backlog reads as growing")
	}
	spike := flat(80, 40)
	for i := 70; i < 74; i++ {
		spike[i] = 5000 // one stall late in the phase
	}
	if backlogGrows(spike, rate) {
		t.Error("one transient stall reads as growth")
	}
	growing := flat(80, 40)
	for i := range growing {
		growing[i] += int64(i) * 20 // 1600 more owed by the end
	}
	if !backlogGrows(growing, rate) {
		t.Error("a backlog rising by 1600 queries does not read as growing")
	}
	if backlogGrows(growing[:6], rate) {
		t.Error("too few samples to judge should not read as growing")
	}
}

func TestRungPasses(t *testing.T) {
	lim := rungLimits{p99us: 5000, failFrac: 0.001}
	ok := flat(80, 10)
	if pass, why := rungPasses(1e5, 800, 0, ok, lim); !pass {
		t.Errorf("healthy rung failed: %s", why)
	}
	if pass, _ := rungPasses(1e5, 5000, 0, ok, lim); pass {
		t.Error("p99 at the limit passed")
	}
	if pass, _ := rungPasses(1e5, 800, 0.001, ok, lim); pass {
		t.Error("fail_frac at the limit passed")
	}
	grow := flat(80, 10)
	for i := range grow {
		grow[i] += int64(i) * 100
	}
	if pass, why := rungPasses(1e5, 800, 0, grow, lim); pass || why != "backlog grows" {
		t.Errorf("growing backlog: pass=%v why=%q", pass, why)
	}
}

// walk runs the ladder against a server that passes every rung below
// capacity (a grid index) and fails at or above it, except for the
// rungs listed in flaky, which fail the first time they run.
func walk(capacity int, flaky map[int]bool) (best int, ran []int) {
	return walkFrom(0, ladderCoarse, capacity, flaky)
}

func walkFrom(start, coarse, capacity int, flaky map[int]bool) (best int, ran []int) {
	l := newLadder(start, coarse)
	for {
		i, ok := l.next()
		if !ok {
			return l.best(), ran
		}
		ran = append(ran, i)
		pass := i < capacity
		if flaky[i] {
			pass = false
			delete(flaky, i)
		}
		l.record(i, pass)
	}
}

func TestLadderDecision(t *testing.T) {
	cases := []struct {
		capacity int
		want     int
	}{
		{0, -1},                    // the lowest rung fails
		{1, 0},                     // only the lowest passes
		{10, 9},                    // between coarse rungs
		{9, 8},                     // right on a coarse rung
		{ladderTop + 1, ladderTop}, // never fails: the grid's top
		{ladderTop - 1, ladderTop - 2},
	}
	for _, c := range cases {
		best, ran := walk(c.capacity, nil)
		if best != c.want {
			t.Errorf("capacity %d: best %d, want %d (ran %v)", c.capacity, best, c.want, ran)
		}
		seen := map[int]bool{}
		for _, i := range ran {
			if seen[i] {
				t.Errorf("capacity %d: rung %d ran twice (%v)", c.capacity, i, ran)
			}
			seen[i] = true
		}
	}
	// A failure below capacity ends the climb there: the ladder reports
	// the highest rung below the first failure it saw. (climb reruns a
	// failing rung so that one stall does not cause this.)
	if best, _ := walk(20, map[int]bool{12: true}); best != 11 {
		t.Errorf("failure at 12 below capacity 20: best %d, want 11", best)
	}
	// Re-climbs start near the first answer and step one rung at a time;
	// a failing start walks down, never back to the bottom.
	reclimbs := []struct {
		start, capacity, want int
		ran                   []int
	}{
		{30, 33, 32, []int{30, 31, 32, 33}},
		{34, 33, 32, []int{34, 33, 32}},
		{2, 0, -1, []int{2, 1, 0}},
	}
	for _, c := range reclimbs {
		best, ran := walkFrom(c.start, 1, c.capacity, nil)
		if best != c.want || fmt.Sprint(ran) != fmt.Sprint(c.ran) {
			t.Errorf("re-climb from %d, capacity %d: best %d ran %v, want %d ran %v", c.start, c.capacity, best, ran, c.want, c.ran)
		}
	}
}

// The climbs' answers are averaged without the highest and the lowest,
// so one climb spoiled by a stall does not move qps_max.
func TestTrimmedMean(t *testing.T) {
	rungs := func(rates ...float64) []rung {
		var rs []rung
		for _, r := range rates {
			rs = append(rs, rung{answeredPS: r})
		}
		return rs
	}
	cases := []struct {
		rs   []rung
		want float64
	}{
		{rungs(100), 100},
		{rungs(100, 200), 150},
		{rungs(300, 100, 200), 200},
		{rungs(10, 100, 110, 120, 1000), 110},
		{rungs(100, 106, 106, 112, 112, 112, 20), (106 + 106 + 112 + 112 + 100) / 5.0},
	}
	for _, c := range cases {
		if got := trimmedMean(c.rs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("trimmedMean(%v) = %g, want %g", c.rs, got, c.want)
		}
	}
}

// A batch run that fails its output checks reports the failures in
// the result line's failed count, never more than the repeats run.
func TestSummarizeCountsFailures(t *testing.T) {
	rs := []repeatStats{{wall: time.Second}, {wall: time.Second}, {wall: time.Second}}
	for _, problems := range []int{0, 1, 5} {
		rep := newReport()
		for i := 0; i < problems; i++ {
			rep.fail("check %d", i)
		}
		summarize(rep, []float64{1}, rs, 10, "draws")
		if want := int64(min(problems, len(rs))); rep.failed != want || rep.attempted != int64(len(rs)) {
			t.Errorf("%d problems: failed %d of %d, want %d of %d", problems, rep.failed, rep.attempted, want, len(rs))
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130}, // runs past root
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
		{ID: 6, Name: "other", Start: 0, End: 5},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 40, 5: 5, 6: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if byName["a"] != 25e-9 {
		t.Errorf("selfByName[a] = %g s, want 25 ns", byName["a"])
	}
}

func TestTracerPauseAndNil(t *testing.T) {
	var none *tracer
	none.Start("x", spanRef{}).End() // a nil tracer is inert
	tr := newTracer()
	root := tr.Start("root", spanRef{})
	tr.off.Store(true)
	tr.Start("hidden", root).End()
	tr.off.Store(false)
	tr.Start("child", root).End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Name != "child" || spans[1].Parent != spans[0].ID {
		t.Errorf("spans = %+v", spans)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestMetricsMatchBenchmarkJSON holds the harness's metric tables and
// BENCHMARK.json at the repository root to each other.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", kind, i, got[i], want[i])
			}
			if !metricName.MatchString(want[i].Name) || !unitName.MatchString(want[i].Unit) {
				t.Errorf("%s: bad name or unit %+v", kind, want[i])
			}
			if seen[want[i].Name] {
				t.Errorf("metric %s listed twice", want[i].Name)
			}
			seen[want[i].Name] = true
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	listed := map[string]bool{}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok || !metricName.MatchString(w.Name) {
			t.Errorf("workload %q is not the harness's", w.Name)
		}
		listed[w.Name] = true
	}
	for name := range workloads {
		if !listed[name] && name != "serve-hot" {
			t.Errorf("workload %q is missing from BENCHMARK.json", name)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// respond builds the reply a DNSBL gives for query under list; flip
// inverts the verdict.
func respond(query []byte, qlen int, list *blocklist.Trie, flip bool) []byte {
	out := append([]byte(nil), query[:12+qlen]...)
	out[2] |= 0x84
	name := out[12 : 12+qlen]
	var oct [4]uint32
	off := 0
	for i := 0; i < 4; i++ {
		l := int(name[off])
		v := uint32(0)
		for _, c := range name[off+1 : off+1+l] {
			v = v*10 + uint32(c-'0')
		}
		oct[i] = v
		off += 1 + l
	}
	addr := netaddr.Addr(oct[3]<<24 | oct[2]<<16 | oct[1]<<8 | oct[0])
	e, listed := list.Lookup(addr)
	if flip {
		listed = !listed
	}
	if !listed {
		out[3] = 3
		return out
	}
	out[7] = 1
	return append(out, 0xc0, 0x0c, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 127, 0, 0, codeOctet(e.Reason))
}

// TestFaultInjectedResponder runs the generator against a responder
// that flips every 10th verdict and drops every 7th reply: both must
// show up in fail_frac, and nothing else may.
func TestFaultInjectedResponder(t *testing.T) {
	list := &blocklist.Trie{}
	list.Insert(netaddr.MustParseAddr("10.1.2.0").Block(24), "bot")
	list.Insert(netaddr.MustParseAddr("10.9.0.0").Block(16), "spam")
	hist := &listHistory{}
	hist.publish(1, list)
	hist.markLive(1)

	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := newBatchConn(conn, 32, 512)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		seq := 0
		for {
			n, err := bc.Read()
			if err != nil {
				return
			}
			k := 0
			for i := 0; i < n; i++ {
				seq++
				if seq%7 == 0 {
					continue // dropped reply
				}
				q := bc.bufs[i][:bc.lens[i]]
				r := respond(q, len(q)-12, list, seq%10 == 0)
				bc.lens[k] = copy(bc.bufs[k], r)
				bc.names[k], bc.nameLens[k] = bc.names[i], bc.nameLens[i]
				k++
			}
			if _, err := bc.Write(k, true); err != nil {
				return
			}
		}
	}()
	defer func() { conn.Close(); <-done }()

	g, err := newGenerator(conn.LocalAddr().(*net.UDPAddr), serveZone, hist, false, nil, spanRef{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	addrs := []string{"10.1.2.3", "10.1.3.3", "10.9.200.1", "192.0.2.1"}
	i := 0
	next := func() uint32 { i++; return uint32(netaddr.MustParseAddr(addrs[i%len(addrs)])) }
	ph, err := g.run(5000, 0, 300*time.Millisecond, next)
	if err != nil {
		t.Fatal(err)
	}

	if ph.due == 0 || ph.sent != ph.due {
		t.Fatalf("due %d sent %d", ph.due, ph.sent)
	}
	wantLost := ph.due / 7
	wantWrong := ph.due/10 - ph.due/70 // flipped, less those also dropped
	if d := ph.lost - wantLost; d < -2 || d > 2 {
		t.Errorf("lost %d, want about %d", ph.lost, wantLost)
	}
	if d := ph.wrong - wantWrong; d < -2 || d > 2 {
		t.Errorf("wrong %d, want about %d", ph.wrong, wantWrong)
	}
	if ph.stale != 0 {
		t.Errorf("stale %d from a single list", ph.stale)
	}
	if got, want := ph.failFrac(), float64(ph.lost+ph.wrong)/float64(ph.due); got != want || got < 0.2 {
		t.Errorf("fail_frac %g, want %g (about 0.23)", got, want)
	}
}

func TestStaleAnswer(t *testing.T) {
	old, cur := &blocklist.Trie{}, &blocklist.Trie{}
	old.Insert(netaddr.MustParseAddr("10.1.2.0").Block(24), "bot")
	hist := &listHistory{}
	hist.publish(1, old)
	hist.publish(2, cur)
	addr := uint32(netaddr.MustParseAddr("10.1.2.3"))
	var q [512]byte
	n := encodeQuery(q[:], wireName(serveZone), 7, addr, queryKindA)
	listedReply := respond(q[:n], n-12, old, false)
	if v, _ := hist.check(listedReply, n-12, queryKindA, addr, 2, 2); v != verdictStale {
		t.Errorf("answer from a list retired before the query: verdict %d, want stale", v)
	}
	if v, _ := hist.check(listedReply, n-12, queryKindA, addr, 1, 2); v != verdictOK {
		t.Errorf("answer from the list live at send: verdict %d, want ok", v)
	}
	wrong := append([]byte(nil), listedReply...)
	wrong[len(wrong)-1] = 99 // a return code neither list gives
	if v, _ := hist.check(wrong, n-12, queryKindA, addr, 1, 2); v != verdictWrong {
		t.Errorf("answer no list gives: verdict %d, want wrong", v)
	}
}

// TestAgainstServer drives the real dnsbl server briefly: every answer,
// A and TXT follow-up alike, must check out.
func TestAgainstServer(t *testing.T) {
	list := &blocklist.Trie{}
	list.Insert(netaddr.MustParseAddr("10.1.2.0").Block(24), "scan")
	list.Insert(netaddr.MustParseAddr("10.7.0.0").Block(24), "phish")
	hist := &listHistory{}
	hist.publish(1, list)
	srv, err := dnsbl.NewServer(serveZone, list, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	hist.markLive(srv.Generation())
	conns, err := dnsbl.ListenShards("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.ServeConns(ctx, conns, dnsbl.ShardConfig{Shards: 1}) }()
	defer func() { cancel(); <-served }()

	g, err := newGenerator(conns[0].LocalAddr().(*net.UDPAddr), serveZone, hist, true, nil, spanRef{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	addrs := []string{"10.1.2.3", "10.7.0.9", "10.1.3.3", "203.0.113.5"}
	i := 0
	next := func() uint32 { i++; return uint32(netaddr.MustParseAddr(addrs[i%len(addrs)])) }
	ph, err := g.run(4000, 0, 300*time.Millisecond, next)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed() != 0 || ph.unmatched != 0 {
		t.Errorf("lost %d wrong %d stale %d unmatched %d of %d", ph.lost, ph.wrong, ph.stale, ph.unmatched, ph.due)
	}
	if ph.followUps == 0 || ph.answered != ph.due {
		t.Errorf("answered %d of %d, %d TXT follow-ups", ph.answered, ph.due, ph.followUps)
	}

	// Closed loop: the window bounds the queries owed a reply (TXT
	// follow-ups ride on top of it), and every one is answered.
	const window = 8
	ph, err = g.run(0, window, 300*time.Millisecond, next)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed() != 0 || ph.unmatched != 0 || ph.answered != ph.due || ph.answered < 100 {
		t.Errorf("closed loop: answered %d of %d; lost %d wrong %d stale %d unmatched %d", ph.answered, ph.due, ph.lost, ph.wrong, ph.stale, ph.unmatched)
	}
	for _, owed := range ph.backlog {
		if owed > 2*window {
			t.Errorf("closed loop owed %d replies, window %d", owed, window)
		}
	}
}
