package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/core"
	"unclean/internal/dnsbl"
	"unclean/internal/experiments"
	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/simnet"
	"unclean/internal/stats"
	"unclean/internal/tracker"
)

// The serve workloads: a dnsbl.Server on one shard over loopback, fed
// by the open-loop generator.

const (
	serveZone      = "bl.unclean.example"
	serveScale     = 1.0 / 128
	serveThreshold = 0.6 // dnsbld's default listing threshold
	reloadEvery    = 40 * time.Millisecond
	refRate        = 20000.0 // the ladder's fixed reference rate
	rungDur        = 400 * time.Millisecond
	zipfExponent   = 1.6 // about 99% of verdicts from the 4096-slot shard cache
	historyDepth   = 64  // list generations the oracle remembers
	serveRcvBuf    = 4 << 20
)

// listHistory is the serve oracle: the lists the server may be serving,
// by generation. A reload publishes its list before calling SetList and
// marks it live after SetList returns, so a query sent while generation
// g was live may be answered from g or any later list published before
// its reply arrived.
type listHistory struct {
	mu     sync.Mutex
	snap   atomic.Pointer[[]genList]
	live   atomic.Uint32
	newest atomic.Uint32
}

// genList is one generation's expected answers: a table keyed by /24
// when every rule is a /24 (as in the lists dnsbld derives), which
// costs the receiver one map probe per reply, else the trie itself.
type genList struct {
	gen  uint32
	by24 map[uint32]byte // addr>>8 → code octet
	list *blocklist.Trie
}

func newGenList(gen uint32, list *blocklist.Trie) genList {
	by24 := make(map[uint32]byte, list.Len())
	list.Walk(func(e blocklist.Entry) bool {
		if e.Block.Bits() != 24 {
			by24 = nil
			return false
		}
		by24[uint32(e.Block.Base())>>8] = codeOctet(e.Reason)
		return true
	})
	return genList{gen: gen, by24: by24, list: list}
}

// lookup returns the answer the list gives for addr.
func (g *genList) lookup(addr uint32) (listed bool, code byte) {
	if g.by24 != nil {
		code, listed = g.by24[addr>>8]
		return listed, code
	}
	e, hit := g.list.Lookup(netaddr.Addr(addr))
	if !hit {
		return false, 0
	}
	return true, codeOctet(e.Reason)
}

func (h *listHistory) publish(gen uint32, list *blocklist.Trie) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var old []genList
	if p := h.snap.Load(); p != nil {
		old = *p
	}
	if len(old) >= historyDepth {
		old = old[len(old)-historyDepth+1:]
	}
	next := append(append(make([]genList, 0, len(old)+1), old...), newGenList(gen, list))
	h.snap.Store(&next)
	h.newest.Store(gen)
}

func (h *listHistory) markLive(gen uint32) { h.live.Store(gen) }
func (h *listHistory) liveGen() uint32     { return h.live.Load() }
func (h *listHistory) newestGen() uint32   { return h.newest.Load() }

// codeOctet is the low octet of the 127.0.0.x code the server returns
// for a rule's reason (the dnsbl package's documented mapping).
func codeOctet(reason string) byte {
	r := strings.ToLower(reason)
	code := dnsbl.CodeGeneric
	switch {
	case strings.Contains(r, "bot"):
		code = dnsbl.CodeBot
	case strings.Contains(r, "scan"):
		code = dnsbl.CodeScan
	case strings.Contains(r, "spam"):
		code = dnsbl.CodeSpam
	case strings.Contains(r, "phish"):
		code = dnsbl.CodePhish
	}
	_, _, _, o := code.Octets()
	return o
}

// parseAnswer reads the verdict a DNSBL reply carries for an A query:
// listed with a code, not listed, or (ok false) neither shape.
func parseAnswer(resp []byte, qlen int) (listed bool, code byte, ok bool) {
	if len(resp) < 12 || resp[2]&0x80 == 0 || resp[4] != 0 || resp[5] != 1 {
		return false, 0, false
	}
	rcode := resp[3] & 0x0f
	an := int(resp[6])<<8 | int(resp[7])
	switch {
	case rcode == 3 && an == 0:
		return false, 0, true
	case rcode == 0 && an == 1 && len(resp) == 12+qlen+16 &&
		resp[len(resp)-4] == 127 && resp[len(resp)-3] == 0 && resp[len(resp)-2] == 0:
		return true, resp[len(resp)-1], true
	}
	return false, 0, false
}

func (h *listHistory) check(resp []byte, qlen int, kind uint8, addr uint32, genSent, genRecv uint32) (verdict, bool) {
	if kind == queryKindTXT {
		// The server has no TXT data: NOERROR, no answers, whatever
		// the list says.
		if len(resp) >= 12 && resp[2]&0x80 != 0 && resp[3]&0x0f == 0 && resp[6] == 0 && resp[7] == 0 {
			return verdictOK, false
		}
		return verdictWrong, false
	}
	listed, code, ok := parseAnswer(resp, qlen)
	if !ok {
		return verdictWrong, false
	}
	matches := func(g *genList) bool {
		l, c := g.lookup(addr)
		return l == listed && (!l || c == code)
	}
	// Generations are contiguous, so the lists in force between send
	// and reply are a slice of the history; look there first.
	hist := *h.snap.Load()
	first := hist[0].gen
	for g := max(genSent, first); g <= genRecv && int(g-first) < len(hist); g++ {
		if matches(&hist[g-first]) {
			return verdictOK, listed
		}
	}
	for g := first; g < genSent && int(g-first) < len(hist); g++ {
		if matches(&hist[g-first]) {
			return verdictStale, listed
		}
	}
	return verdictWrong, listed
}

// echoOracle accepts the query itself coming back: the bare-forwarding
// baseline has no answer to check.
type echoOracle struct{}

func (echoOracle) check(resp []byte, _ int, _ uint8, _ uint32, _, _ uint32) (verdict, bool) {
	if len(resp) >= 12 && resp[2]&0x80 == 0 {
		return verdictOK, false
	}
	return verdictWrong, false
}
func (echoOracle) liveGen() uint32   { return 0 }
func (echoOracle) newestGen() uint32 { return 0 }

// startEcho runs a bare UDP echo loop with the server's batch size: the
// harness ceiling the serve numbers are read against.
func startEcho() (*net.UDPAddr, func(), error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, nil, err
	}
	setRcvBuf(conn) // as the server's socket
	bc, err := newBatchConn(conn, 32, 512)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			n, err := bc.Read()
			if err != nil {
				return
			}
			if _, err := bc.Write(n, true); err != nil {
				return
			}
		}
	}()
	return conn.LocalAddr().(*net.UDPAddr), func() { conn.Close(); <-done }, nil
}

// dayReports are one day's simnet reports, the reload path's input.
type dayReports struct {
	bots, scan, spam ipset.Set
}

// serveEnv is one running server and everything its workloads need.
type serveEnv struct {
	world   *simnet.World
	days    []dayReports
	tr      *tracker.Tracker
	base    time.Time
	reloads int
	srv     *dnsbl.Server
	hist    *listHistory
	addr    *net.UDPAddr
	cancel  context.CancelFunc
	done    chan error
	rules   int
	rcvBuf  int // SO_RCVBUF the server socket reports
}

// newServeEnv builds the world, folds its reports into a tracker, derives
// the list the way dnsbld does (threshold 0.6, /24 blocks) and starts
// the server on one shard over loopback.
func newServeEnv(tr *tracer, root spanRef) (*serveEnv, error) {
	sp := tr.Start("simnet.NewWorld", root)
	wcfg := simnet.DefaultConfig(serveScale)
	wcfg.Seed = worldSeed
	world, err := simnet.NewWorld(wcfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	e := &serveEnv{world: world, hist: &listHistory{}}
	sp = tr.Start("simnet.reports", root)
	from := experiments.UncleanFrom.AddDate(0, 0, -27)
	for d := from; !d.After(experiments.UncleanTo); d = d.AddDate(0, 0, 1) {
		e.days = append(e.days, dayReports{
			bots: world.BotsActive(d, d),
			scan: world.ScannersOn(d),
			spam: world.SpammersOn(d),
		})
	}
	sp.End()
	e.tr, err = tracker.New(tracker.Config{Bits: 24, HalfLife: 42 * 24 * time.Hour, Tau: 4})
	if err != nil {
		return nil, err
	}
	e.base = from
	// Warm the tracker with two passes over the days, so the list the
	// reload loop rebuilds is near its steady size from the start.
	for i := 0; i < 2*len(e.days); i++ {
		e.observe(nil, spanRef{})
	}
	list := e.buildList(tr, root)
	e.hist.publish(1, list)
	e.srv, err = dnsbl.NewServer(serveZone, list, time.Minute)
	if err != nil {
		return nil, err
	}
	e.hist.markLive(e.srv.Generation())
	conns, err := dnsbl.ListenShards("127.0.0.1:0", 1)
	if err != nil {
		return nil, err
	}
	// A 4 MiB receive queue, as a DNS operator would configure (dnsbld
	// itself keeps the kernel default). With the default (208 KiB on a
	// stock kernel) a reload or GC stall of a few ms on two cores
	// overflows it and the queries are lost; with it, the stall shows as
	// latency. rmem_max caps the request: the header and fingerprint
	// record what the kernel granted, and dnsbl.socket_drops counts what
	// still overflows.
	if uc, ok := conns[0].(*net.UDPConn); ok {
		e.rcvBuf = setRcvBuf(uc)
	}
	e.addr = conns[0].LocalAddr().(*net.UDPAddr)
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	e.done = make(chan error, 1)
	go func() { e.done <- e.srv.ServeConns(ctx, conns, dnsbl.ShardConfig{Shards: 1}) }()
	return e, nil
}

// Close stops the server and waits for its shard loop.
func (e *serveEnv) Close() error {
	e.cancel()
	return <-e.done
}

// observe folds the next day's reports into the tracker.
func (e *serveEnv) observe(tr *tracer, parent spanRef) {
	d := e.days[e.reloads%len(e.days)]
	at := e.base.AddDate(0, 0, e.reloads)
	e.reloads++
	sp := tr.Start("tracker.Observe", parent)
	_ = e.tr.Observe(core.DimBot, d.bots, at)
	_ = e.tr.Observe(core.DimScan, d.scan, at)
	_ = e.tr.Observe(core.DimSpam, d.spam, at)
	sp.End()
}

// buildList is dnsbld's list derivation: the tracker's blocklist at the
// threshold, one /24 rule per block, reason its dominant dimension.
func (e *serveEnv) buildList(tr *tracer, parent spanRef) *blocklist.Trie {
	sp := tr.Start("tracker.Blocklist", parent)
	blocks := e.tr.Blocklist(serveThreshold).Blocks(24)
	sp.End()
	sp = tr.Start("tracker.Score", parent)
	reasons := make([]string, len(blocks))
	for i, b := range blocks {
		sc := e.tr.Score(b.Base())
		reasons[i] = "unclean"
		best := 0.0
		for d := core.DimBot; d <= core.DimPhish; d++ {
			if v := sc.ByDim[d]; v > best {
				best, reasons[i] = v, d.String()
			}
		}
	}
	sp.End()
	sp = tr.Start("blocklist.Trie", parent)
	list := &blocklist.Trie{}
	for i, b := range blocks {
		list.Insert(b, reasons[i])
	}
	sp.End()
	e.rules = list.Len()
	return list
}

// reload is one trip down the reload path: the next day's reports into
// the tracker, a fresh list, SetList. It returns the time from its start
// to SetList returning, less the oracle's bookkeeping in between.
func (e *serveEnv) reload(tr *tracer, parent spanRef) time.Duration {
	start := time.Now()
	sp := tr.Start("reload", parent)
	e.observe(tr, sp)
	list := e.buildList(tr, sp)
	built := time.Since(start)
	gen := e.hist.newestGen() + 1
	e.hist.publish(gen, list)
	setStart := time.Now()
	s := tr.Start("dnsbl.SetList", sp)
	e.srv.SetList(list)
	s.End()
	took := built + time.Since(setStart)
	sp.End()
	e.hist.markLive(gen)
	return took
}

// reloadLoop reloads every reloadEvery until stop closes, recording
// each reload's duration.
func (e *serveEnv) reloadLoop(stop <-chan struct{}, tr *tracer, parent spanRef, out *[]float64) {
	next := time.Now()
	for {
		select {
		case <-stop:
			return
		default:
		}
		took := e.reload(tr, parent)
		*out = append(*out, took.Seconds()*1e3)
		next = next.Add(reloadEvery)
		if d := time.Until(next); d > 0 {
			select {
			case <-stop:
				return
			case <-time.After(d):
			}
		} else {
			next = time.Now()
		}
	}
}

// zipfSource draws addresses from pool with Zipf-skewed popularity:
// rank r is drawn with weight 1/r^s. Draws index a 2^20-entry quantile
// table, so a draw is one RNG call and one load.
func zipfSource(pool []uint32, s float64, rng *stats.RNG) func() uint32 {
	const size = 1 << 20
	w := make([]float64, len(pool))
	total := 0.0
	for r := range pool {
		w[r] = 1 / math.Pow(float64(r+1), s)
		total += w[r]
	}
	table := make([]uint32, size)
	cum, r := 0.0, 0
	for j := range table {
		target := (float64(j) + 0.5) / size * total
		for r < len(pool)-1 && cum+w[r] < target {
			cum += w[r]
			r++
		}
		table[j] = pool[r]
	}
	return func() uint32 { return table[rng.Uint64()&(size-1)] }
}

// routedSource draws addresses uniformly over the world's routed /24s.
func routedSource(world *simnet.World, rng *stats.RNG) func() uint32 {
	bases := make([]uint32, world.Model.NetworkCount())
	for i := range bases {
		bases[i] = uint32(world.Model.NetworkAt(i).Base)
	}
	return func() uint32 {
		v := rng.Uint64()
		return bases[(v>>8)%uint64(len(bases))] | uint32(v&0xff)
	}
}

// activePool is the serve-hot address pool: the world's active hosts (an
// activity-weighted draw plus the bots active in the unclean window), in
// a seeded random popularity order.
func activePool(world *simnet.World, rng *stats.RNG) []uint32 {
	ctl, err := world.ControlSample(min(world.ScaledSize(experiments.PaperControlSize), world.Model.TotalHosts()/2), rng)
	if err != nil {
		return nil
	}
	set := ctl.Union(world.BotsActive(experiments.UncleanFrom, experiments.UncleanTo))
	pool := make([]uint32, 0, set.Len())
	set.Each(func(a netaddr.Addr) bool {
		pool = append(pool, uint32(a))
		return true
	})
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// rung is one ladder step's outcome.
type rung struct {
	idx        int
	rate       float64
	ph         *phaseStats
	pass       bool
	why        string
	answeredPS float64
}

// capacity climbs the ladder climbs times: once from the bottom, then
// from two rungs below the first answer. It returns every rung run, in
// order, and each climb's best passing rung; it stops early, with fewer
// bests than climbs, when a climb finds none. Climbs after the first
// give up at budget, so a stretch of bad host weather cannot run the
// ladder past the run's time limit.
func capacity(g *generator, next func() uint32, lim rungLimits, climbs int, budget time.Duration) (all, bests []rung, err error) {
	start, coarse := 0, ladderCoarse
	var deadline time.Time // none for the first climb
	for c := 0; c < climbs; c++ {
		rs, best, err := climb(g, next, lim, start, coarse, deadline)
		all = append(all, rs...)
		if err != nil || best < 0 {
			return all, bests, err
		}
		bests = append(bests, rs[best])
		if c == 0 {
			start, coarse = max(0, rs[best].idx-2), 1
			deadline = time.Now().Add(budget)
		}
	}
	return all, bests, nil
}

// trimmedMean is the mean of the climbs' answered rates without the
// highest and the lowest (when there are at least three). Each climb's
// answer sits on the grid, a step of 6% apart, and a rung near capacity
// passes or fails by chance; averaging the middle climbs resolves
// capacity finer than the grid, and trimming keeps one climb spoiled by
// a host stall from moving it.
func trimmedMean(rs []rung) float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = r.answeredPS
	}
	sort.Float64s(v)
	if len(v) >= 3 {
		v = v[1 : len(v)-1]
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(max(len(v), 1))
}

// medianRung is the rung whose answered rate is the median of rs.
func medianRung(rs []rung) rung {
	s := append([]rung(nil), rs...)
	sort.Slice(s, func(i, j int) bool { return s[i].answeredPS < s[j].answeredPS })
	return s[(len(s)-1)/2]
}

// climb walks one ladder from grid index start and returns every rung
// run, in order, and the index into it of the best passing rung (-1 for
// none). A failing rung is run a second time and fails only if it fails
// again, so one stall does not end the climb.
func climb(g *generator, next func() uint32, lim rungLimits, start, coarse int, deadline time.Time) ([]rung, int, error) {
	l := newLadder(start, coarse)
	var out []rung
	best := -1
	for {
		i, ok := l.next()
		if !ok {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return out, -1, nil
		}
		rate := ladderRate(i)
		pass := false
		for try := 0; try < 2 && !pass; try++ {
			ph, err := g.run(rate, 0, rungDur, next)
			if err != nil {
				return out, -1, err
			}
			var why string
			pass, why = rungPasses(rate, ph.lat.p99, ph.failFrac(), ph.backlog, lim)
			out = append(out, rung{idx: i, rate: rate, ph: ph, pass: pass, why: why, answeredPS: ph.answeredRate()})
			time.Sleep(20 * time.Millisecond) // let queues empty between rungs
		}
		l.record(i, pass)
		if i == l.best() {
			best = len(out) - 1
		}
	}
	return out, best, nil
}

// describeRungs renders the ladder for the report.
func describeRungs(rs []rung) string {
	var b strings.Builder
	for _, r := range rs {
		mark := "pass"
		if !r.pass {
			mark = "FAIL " + r.why
		}
		fmt.Fprintf(&b, "  rung %2d  offered %8.0f/s  answered %8.0f/s  p50 %7.1fus  p99 %7.1fus  fail %.4f  %s\n",
			r.idx, r.rate, r.answeredPS, r.ph.lat.p50, r.ph.lat.p99, r.ph.failFrac(), mark)
	}
	return b.String()
}
