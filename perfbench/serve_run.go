package main

import (
	"fmt"
	"net"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"unclean/internal/dnsbl"
	"unclean/internal/stats"
)

// serveClimbs is how many ladder climbs a serve run makes; qps_max is
// the trimmed mean of their answers. Climbs after the first stop once
// twice the run's seconds have passed since it ended.
const serveClimbs = 7

// satWindow is how many queries the saturation phase keeps owed a
// reply: a closed loop, the way dnsperf drives a DNS server. It is far
// more than the server's batch and loopback's round trip need, so the
// server never idles for want of queries, and far less than its socket's
// receive buffer holds, so none overflow.
const satWindow = 256

// runServe is serve-hot (churn false) and serve-churn (churn true).
func runServe(o *options, churn bool) (*report, error) {
	rep := newReport()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	root := tr.Start("run", spanRef{})
	lim := serveLimits

	var env *serveEnv
	var next func() uint32
	setups, err := timeSetups(func() error {
		sp := tr.Start("setup", root)
		defer sp.End()
		e, err := newServeEnv(tr, sp)
		if err != nil {
			return err
		}
		env = e
		rng := stats.NewRNG(o.seed ^ 0x5e7e)
		if churn {
			next = routedSource(env.world, rng)
		} else {
			next = zipfSource(activePool(env.world, rng), zipfExponent, rng)
		}
		return nil
	}, func() error { return env.Close() })
	if err != nil {
		return nil, err
	}
	defer env.Close()

	g, err := newGenerator(env.addr, serveZone, env.hist, churn, tr, root)
	if err != nil {
		return nil, err
	}
	defer g.Close()

	var reloadMs []float64
	stop := make(chan struct{})
	reloadDone := make(chan struct{})
	if churn {
		go func() {
			defer close(reloadDone)
			env.reloadLoop(stop, tr, root, &reloadMs)
		}()
	} else {
		close(reloadDone)
	}
	var stopOnce sync.Once
	stopReloads := func() {
		stopOnce.Do(func() { close(stop) })
		<-reloadDone
	}
	defer stopReloads()

	// Collect set-up's garbage now, so no GC cycle it owes runs inside a
	// measured phase, then warm the caches and discard the result.
	debug.FreeOSMemory()
	resetPeakRSS()
	if _, err := g.run(refRate, 0, time.Second, next); err != nil {
		return nil, err
	}
	srvPort, genPort := env.addr.Port, g.conn.LocalAddr().(*net.UDPAddr).Port
	drops0, genDrops0 := udpDrops(srvPort), udpDrops(genPort)
	p0 := readProc()
	srv0, sh0 := env.srv.Snapshot(), sumShards(env.srv.ShardSnapshots())
	ans0 := g.answered.Load()

	refDur := time.Duration(max(1, 0.25*o.seconds) * float64(time.Second))
	ref, err := g.run(refRate, 0, refDur, next)
	if err != nil {
		return nil, err
	}
	// Saturation, in two halves, one before the ladder and one after it,
	// so that the rate samples the host twice, half a minute apart.
	// rate_per_s is queries answered per second of the process's CPU
	// time, which the host's steal does not inflate.
	satHalf := time.Duration(max(2.5, o.seconds/4) * float64(time.Second))
	var sats []*phaseStats
	var satCPU float64
	saturate := func() error {
		c0 := readProc()
		ph, err := g.run(0, satWindow, satHalf, next)
		if err != nil {
			return err
		}
		satCPU += c0.to(readProc()).cpu.Seconds()
		sats = append(sats, ph)
		return nil
	}
	if err := saturate(); err != nil {
		return nil, err
	}
	budget := time.Duration(max(20, 2*o.seconds) * float64(time.Second))
	rungs, bests, err := capacity(g, next, lim, serveClimbs, budget)
	if err != nil {
		return nil, err
	}
	if err := saturate(); err != nil {
		return nil, err
	}

	// What tracing costs: reference-rate phases alternately traced and
	// with recording paused, so both halves see the same machine.
	var tracedP50, pausedP50 []float64
	for i := 0; o.trace && i < 8; i++ {
		tr.off.Store(i%2 == 1)
		ph, err := g.run(refRate, 0, 500*time.Millisecond, next)
		if err != nil {
			return nil, err
		}
		if i%2 == 1 {
			pausedP50 = append(pausedP50, ph.lat.p50)
		} else {
			tracedP50 = append(tracedP50, ph.lat.p50)
		}
	}
	if o.trace {
		tr.off.Store(false)
	}
	p1 := readProc()
	srv1, sh1 := env.srv.Snapshot(), sumShards(env.srv.ShardSnapshots())
	drops, genDrops := udpDrops(srvPort)-drops0, udpDrops(genPort)-genDrops0
	answered := g.answered.Load() - ans0
	stopReloads()
	peak := peakRSSMiB()
	for i := 0; i < 5; i++ {
		calibSample()
	}

	// Output checks: wrong or stale answers anywhere fail the run; the
	// reference phase and the passing rungs count towards fail_frac.
	phases := []*phaseStats{ref}
	for _, r := range rungs {
		if r.ph.wrong+r.ph.stale > 0 {
			rep.fail("rung at %.0f/s: %d wrong and %d stale answers", r.rate, r.ph.wrong, r.ph.stale)
		}
		if r.pass {
			phases = append(phases, r.ph)
		}
	}
	if ref.wrong+ref.stale > 0 {
		rep.fail("reference phase: %d wrong and %d stale answers", ref.wrong, ref.stale)
	}
	var satAnswered int64
	var satWall float64
	for i, ph := range sats {
		if ph.wrong+ph.stale > 0 {
			rep.fail("saturation phase %d: %d wrong and %d stale answers", i, ph.wrong, ph.stale)
		}
		satAnswered += ph.answered
		satWall += float64(ph.lastReplyNs-ph.startNs) / 1e9
	}
	phases = append(phases, sats...)
	satQPS := float64(satAnswered) / satWall
	for _, ph := range phases {
		rep.attempted += ph.due
		rep.failed += ph.failed()
	}
	if len(bests) == 0 {
		rep.fail("the ladder found no passing rung; the lowest rung is %.0f/s", ladderRate(0))
	}
	if churn && len(reloadMs) < 100 {
		rep.fail("only %d reloads ran; a run needs at least 100", len(reloadMs))
	}
	if ref.failFrac() >= lim.failFrac {
		rep.fail("reference phase fail_frac %.4f over the %.4f limit", ref.failFrac(), lim.failFrac)
	}
	rep.linef("open loop, ticked every %v; reference rate %.0f/s for %v; ladder rungs %v each", genTick, refRate, refDur, rungDur)
	rep.linef("reference phase: due %d sent %d answered %d lost %d wrong %d stale %d unmatched %d; TXT follow-ups %d (%d dropped)",
		ref.due, ref.sent, ref.answered, ref.lost, ref.wrong, ref.stale, ref.unmatched, ref.followUps, ref.followDropped)
	rep.linef("socket receive queue overflows while measured: server %d, generator %d (server SO_RCVBUF %d bytes)", drops, genDrops, env.rcvBuf)
	if churn {
		rep.linef("reloads: %d, p50 %.2f ms, p90 %.2f ms, rules %d", len(reloadMs), median(reloadMs), quantile(reloadMs, 0.9), env.rules)
	}
	rep.linef("ladder:\n%s", describeRungs(rungs))
	if len(rep.problems) > 0 {
		return rep, nil
	}

	qpsMax, top := trimmedMean(bests), medianRung(bests)
	lat := ref.lat
	climbRates := make([]float64, len(bests))
	for i, b := range bests {
		climbRates[i] = b.answeredPS
	}
	rep.linef("setup_s        %10.4f s     (median of %d)", median(setups), len(setups))
	rep.linef("qps_max        %10.0f 1/s   (trimmed mean of %d climbs: %s answered/s; a rung passes with p99 < %.0fus, fail_frac < %g, no backlog growth)",
		qpsMax, len(bests), joinRates(climbRates), lim.p99us, lim.failFrac)
	rep.linef("sat_qps        %10.0f 1/s   (closed loop, %d queries owed a reply, for %v before the ladder and %v after it: %.0f and %.0f answered/s)",
		satQPS, satWindow, satHalf, satHalf, sats[0].answeredRate(), sats[1].answeredRate())
	rep.linef("sat_qps_per_cpu_s %7.0f 1/s   (%d answered in %.2f s of process CPU: server, reloads and generator)", float64(satAnswered)/satCPU, satAnswered, satCPU)
	rep.linef("p50_us         %10.1f us    (n=%d replies at %.0f/s, timed from due time)", lat.p50, lat.n, refRate)
	rep.linef("p99_us         %10.1f us    (highest percentile n supports: p%g, %.1f us)", lat.p99, 100*lat.topQ, lat.top)
	rep.linef("fail_frac      %10.6f       (%d of %d queries at the reference rate, saturation and passing rungs)", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	if churn {
		rep.linef("reload_p50_ms  %10.3f ms    (%d reloads, one every %v)", median(reloadMs), len(reloadMs), reloadEvery)
		rep.linef("reload_p90_ms  %10.3f ms", quantile(reloadMs, 0.9))
		rep.linef("follow-up TXT queries: %d (slow path)", ref.followUps)
	}
	rep.linef("peak_rss_mib   %10.1f MiB   (VmHWM while serving)", peak)
	if !churn {
		rep.linef("serve-hot is not in BENCHMARK.json: its qps_max reaches the echo ceiling (gen.echo_qps_max, traced run), so it measures loopback and the generator; read its per-layer numbers")
	}

	rep.e2e["setup_s"] = median(setups)
	rep.e2e["rate_per_s"] = float64(satAnswered) / satCPU
	rep.e2e["peak_rss_mib"] = peak

	if o.trace {
		layer := rep.layer
		layer["dnsbl.handle_p50_us"] = float64(srv1.Latency.P50) / 1e3
		layer["dnsbl.handle_p99_us"] = float64(srv1.Latency.P99) / 1e3
		pk, bt := float64(sh1.Packets-sh0.Packets), float64(sh1.Batches-sh0.Batches)
		fast, slow := float64(sh1.FastPath-sh0.FastPath), float64(sh1.SlowPath-sh0.SlowPath)
		layer["dnsbl.batch_size"] = pk / max(bt, 1)
		layer["dnsbl.fastpath_ratio"] = fast / max(fast+slow, 1)
		layer["dnsbl.cache_hit_ratio"] = float64(sh1.CacheHits-sh0.CacheHits) / max(fast, 1)
		layer["dnsbl.shed"] = float64(srv1.Shed - srv0.Shed)
		layer["dnsbl.dropped"] = float64(srv1.Dropped - srv0.Dropped)
		layer["dnsbl.socket_drops"] = float64(drops)
		spans := tr.Spans()
		if churn {
			self := selfTimes(spans)
			ms := func(name string) float64 { return median(selfSamples(spans, self, name)) * 1e3 }
			layer["dnsbl.setlist_ms"] = ms("dnsbl.SetList")
			layer["tracker.observe_ms"] = ms("tracker.Observe")
			layer["tracker.blocklist_ms"] = ms("tracker.Blocklist")
			layer["tracker.score_ms"] = ms("tracker.Score")
			layer["blocklist.trie_build_ms"] = ms("blocklist.Trie")
			layer["reload_p50_ms"] = median(reloadMs)
			layer["reload_p90_ms"] = quantile(reloadMs, 0.9)
		}
		layer["blocklist.rules"] = float64(env.rules)
		d := p0.to(p1)
		layer["proc.cpu_us_per_query"] = d.cpu.Seconds() * 1e6 / float64(max(answered, 1))
		layer["proc.cpu_s"] = d.cpu.Seconds()
		layer["proc.parallel_eff"] = d.cpu.Seconds() / (d.wall.Seconds() * float64(runtimeProcs()))
		layer["proc.gc_cycles"] = d.gcCycles
		layer["proc.gc_pause_ms"] = d.gcPauseMs
		layer["proc.alloc_mib"] = d.allocMiB
		layer["gen.busy_frac"] = top.ph.busy.Seconds() / top.ph.wall.Seconds()
		layer["gen.late_p99_us"] = summarizeNs(top.ph.lateNs).p99
		layer["trace.overhead_pct"] = 100 * (median(tracedP50) - median(pausedP50)) / median(pausedP50)

		echoQPS, echoRungs, err := echoCeiling(next, lim, budget)
		if err != nil {
			return nil, err
		}
		layer["gen.echo_qps_max"] = echoQPS
		rep.linef("echo baseline ladder (bare recvmmsg/sendmmsg loop, same generator):\n%s", describeRungs(echoRungs))
		if fastest := max(qpsMax, satQPS); echoQPS <= fastest {
			rep.linef("WARNING: qps_max or sat_qps (%.0f/s) is not below the echo ceiling %.0f/s; it measures the harness", fastest, echoQPS)
		}
		root.End()
		finishTrace(o, tr)
	}
	return rep, nil
}

// echoCeiling runs the ladder, climbed as for qps_max, against a bare
// echo loop: the highest rate the generator and loopback sustain with no
// server work at all.
func echoCeiling(next func() uint32, lim rungLimits, budget time.Duration) (float64, []rung, error) {
	addr, stop, err := startEcho()
	if err != nil {
		return 0, nil, err
	}
	defer stop()
	g, err := newGenerator(addr, serveZone, echoOracle{}, false, nil, spanRef{})
	if err != nil {
		return 0, nil, err
	}
	defer g.Close()
	if _, err := g.run(refRate, 0, 200*time.Millisecond, next); err != nil {
		return 0, nil, err
	}
	rungs, bests, err := capacity(g, next, lim, serveClimbs, budget)
	if err != nil {
		return 0, rungs, err
	}
	if len(bests) == 0 {
		return 0, rungs, fmt.Errorf("echo baseline: no rung passed")
	}
	return trimmedMean(bests), rungs, nil
}

// sumShards adds up per-shard counters.
func sumShards(ss []dnsbl.ShardStats) dnsbl.ShardStats {
	var t dnsbl.ShardStats
	for _, s := range ss {
		t.Packets += s.Packets
		t.Batches += s.Batches
		t.FastPath += s.FastPath
		t.SlowPath += s.SlowPath
		t.CacheHits += s.CacheHits
		t.Shed += s.Shed
		t.Dropped += s.Dropped
	}
	return t
}

// joinRates renders rates for the report, comma separated.
func joinRates(rates []float64) string {
	each := make([]string, len(rates))
	for i, r := range rates {
		each[i] = fmt.Sprintf("%.0f", r)
	}
	return strings.Join(each, ", ")
}
