package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"unclean/internal/blocklist"
	"unclean/internal/experiments"
	"unclean/internal/ipset"
	"unclean/internal/netflow"
	"unclean/internal/simnet"
	"unclean/internal/stats"
)

// The batch workloads: the §6 blocking sweep and the §4 hypothesis
// tests. Each sets up several times (timeSetups), then repeats its pipeline
// until the run's seconds are spent (at least minRepeats times) and
// reports medians over the repeats.

const (
	sweepScale  = 1.0 / 128
	sweepBudget = 1 << 20 // spill budget per worker: every worker spills
	sweepLo     = 24
	sweepHi     = 32
	hypoScale   = 1.0 / 256
	minRepeats  = 3
	defaultSeed = 1
	// worldSeed builds every workload's world. The world's size varies
	// with its seed by more than the benchmark's bounds (flows per
	// sweep by ~15%), so it is fixed; --seed drives what is sampled
	// from it: query streams, control draws and Monte-Carlo draws.
	worldSeed = 20061001
)

// Result digests recorded at defaultSeed. A run at that seed must
// reproduce them; a run at any seed must reproduce its own first
// repeat's digest on every later repeat.
const (
	sweepDigest = "657f2f9e99ee0066"
	hypoDigest  = "cd7e99516d190e29"
)

// repeatStats is one pipeline repeat.
type repeatStats struct {
	wall   time.Duration
	proc   procDelta
	peak   float64 // VmHWM over the repeat, MiB
	digest string
	traced bool
}

// spendRepeats runs one repeat at a time until seconds have passed and at
// least minRepeats have run. In a traced run, recording is paused on
// every other repeat, so the two halves measure the tracing overhead.
func spendRepeats(o *options, tr *tracer, fn func() (string, error)) ([]repeatStats, error) {
	var out []repeatStats
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; len(out) < minRepeats || time.Now().Before(deadline); i++ {
		traced := tr != nil && i%2 == 0
		if tr != nil {
			tr.off.Store(!traced)
		}
		// Start each repeat from the live heap alone, so its peak does
		// not depend on where the previous repeat left the GC cycle.
		debug.FreeOSMemory()
		calibSample()
		resetPeakRSS()
		p0 := readProc()
		digest, err := fn()
		if err != nil {
			return nil, err
		}
		p1 := readProc()
		out = append(out, repeatStats{wall: p1.at.Sub(p0.at), proc: p0.to(p1), peak: peakRSSMiB(), digest: digest, traced: traced})
	}
	if tr != nil {
		tr.off.Store(false)
	}
	return out, nil
}

// checkDigests fails the run unless every repeat reproduced the first
// one's digest and, at the default seed, the recorded digest.
func checkDigests(rep *report, o *options, rs []repeatStats, recorded string) {
	for i, r := range rs {
		if r.digest != rs[0].digest {
			rep.fail("repeat %d digest %s differs from repeat 0's %s: output is not deterministic", i, r.digest, rs[0].digest)
		}
	}
	if o.seed == defaultSeed && rs[0].digest != recorded {
		rep.fail("digest %s at seed %d differs from the recorded %s", rs[0].digest, o.seed, recorded)
	}
	rep.linef("result digest %s (same on all %d repeats)", rs[0].digest, len(rs))
}

// summarize fills the end-to-end metrics every batch workload shares:
// rate_per_s is the median repeat's work per second. The median repeat
// (wall_s) and the 90th-percentile one are printed; the repeats are too
// few for a p99.
func summarize(rep *report, setups []float64, rs []repeatStats, work float64, unit string) {
	walls := make([]float64, len(rs))
	peaks := make([]float64, len(rs))
	for i, r := range rs {
		walls[i] = r.wall.Seconds()
		peaks[i] = r.peak
	}
	wall := median(walls)
	var each strings.Builder
	for _, w := range walls {
		fmt.Fprintf(&each, " %.3f", w)
	}
	rep.linef("repeat walls (s):%s", each.String())
	rep.attempted = int64(len(rs))
	rep.failed = int64(min(len(rep.problems), len(rs)))
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["rate_per_s"] = work / wall
	rep.e2e["peak_rss_mib"] = median(peaks)
	rep.linef("setup_s        %10.4f s     (median of %d)", median(setups), len(setups))
	rep.linef("wall_s         %10.4f s     (median of %d repeats; p90 %.4f s, slowest %.4f s)", wall, len(rs), quantile(walls, 0.9), quantile(walls, 1))
	rep.linef("%-14s %10.0f %s/s (%.0f %s per repeat)", unit+"_per_s", work/wall, unit, work, unit)
	rep.linef("fail_frac      %10.6f       (%d of %d repeats failed their output checks)", float64(rep.failed)/float64(len(rs)), rep.failed, len(rs))
	rep.linef("peak_rss_mib   %10.1f MiB   (median over repeats of VmHWM, reset before each)", median(peaks))
}

// procLayers fills the proc layer from the repeats.
func procLayers(rep *report, rs []repeatStats) {
	var cpu, eff, alloc, gcs, pause []float64
	for _, r := range rs {
		cpu = append(cpu, r.proc.cpu.Seconds())
		eff = append(eff, r.proc.cpu.Seconds()/(r.wall.Seconds()*float64(runtimeProcs())))
		alloc = append(alloc, r.proc.allocMiB)
		gcs = append(gcs, r.proc.gcCycles)
		pause = append(pause, r.proc.gcPauseMs)
	}
	rep.layer["proc.cpu_s"] = median(cpu)
	rep.layer["proc.parallel_eff"] = median(eff)
	rep.layer["proc.alloc_mib"] = median(alloc)
	rep.layer["proc.gc_cycles"] = median(gcs)
	rep.layer["proc.gc_pause_ms"] = median(pause)
}

// overheadPct compares traced and untraced repeats' median walls.
func overheadPct(rs []repeatStats) float64 {
	var on, off []float64
	for _, r := range rs {
		if r.traced {
			on = append(on, r.wall.Seconds())
		} else {
			off = append(off, r.wall.Seconds())
		}
	}
	return 100 * (median(on) - median(off)) / median(off)
}

// spanMedian is the median, over repeats, of the per-repeat total self
// time of spans named name, in seconds.
func spanMedian(spans []Span, self map[int]int64, name string) float64 {
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	byRepeat := map[int]float64{}
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		r := s.Parent
		for r != 0 && byID[r].Name != "repeat" {
			r = byID[r].Parent
		}
		byRepeat[r] += float64(self[s.ID]) / 1e9
	}
	var v []float64
	for _, t := range byRepeat {
		v = append(v, t)
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

// runSweep is the §6 pipeline with uncleanctl bench's phases: control
// draw and Compress, v2 image and mapped BlockCount, SweepSet, then
// StreamFlows into SweepEvaluator.Consume under a spill budget small
// enough that every worker spills.
func runSweep(o *options) (*report, error) {
	rep := newReport()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	root := tr.Start("run", spanRef{})
	var world *simnet.World
	setups, err := timeSetups(func() error {
		sp := tr.Start("simnet.NewWorld", root)
		defer sp.End()
		cfg := simnet.DefaultConfig(sweepScale)
		cfg.Seed = worldSeed
		w, err := simnet.NewWorld(cfg)
		world = w
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	dir, err := scratchDir(o, "sweep")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	flows := 0
	var spill []float64
	repeat := func() (string, error) {
		sp := tr.Start("repeat", root)
		defer sp.End()
		h := sha256.New()
		put := func(v int) { _ = binary.Write(h, binary.LittleEndian, int64(v)) }

		s := tr.Start("simnet.ControlSample", sp)
		size := min(world.ScaledSize(experiments.PaperControlSize), world.Model.TotalHosts()/2)
		control, err := world.ControlSample(size, stats.NewRNG(o.seed^0xc0417))
		s.End()
		if err != nil {
			return "", err
		}
		s = tr.Start("ipset.Compress", sp)
		control = control.Compress()
		s.End()
		put(control.Len())

		img := filepath.Join(dir, "control.v2")
		s = tr.Start("ipset.image", sp)
		if err := control.WriteFileV2(img); err != nil {
			return "", err
		}
		mapped, err := ipset.OpenMapped(img)
		s.End()
		if err != nil {
			return "", err
		}
		s = tr.Start("ipset.BlockCount", sp)
		for n := 8; n <= 32; n += 4 {
			put(mapped.Set.BlockCount(n))
		}
		s.End()
		if err := mapped.Close(); err != nil {
			return "", err
		}

		s = tr.Start("blocklist.SweepSet", sp)
		ms, err := blocklist.SweepSet(world.BotTest(), sweepLo, sweepHi)
		s.End()
		if err != nil {
			return "", err
		}
		sv := blocklist.NewSweepEvaluator(ms)
		n := 0
		w0 := readWchar()
		s = tr.Start("simnet.StreamFlows", sp)
		err = world.StreamFlows(experiments.UncleanFrom, experiments.UncleanTo, simnet.FlowOptions{
			BenignSourcesPerDay: experiments.Default().BenignPerDay,
			CandidateExtras:     true,
			SpillBudget:         sweepBudget,
			SpillDir:            dir,
		}, func(_ time.Time, recs []netflow.Record) error {
			t0 := time.Now()
			sv.Consume(recs)
			tr.Record("blocklist.Consume", s, t0, time.Now())
			n += len(recs)
			return nil
		})
		s.End()
		if err != nil {
			return "", err
		}
		spill = append(spill, float64(readWchar()-w0)/(1<<20))
		flows = n
		put(n)
		results := sv.Results()
		prev := math.MaxInt
		for i, r := range results {
			if r.FlowsBlocked+r.FlowsPassed != n {
				rep.fail("/%d: blocked %d + passed %d != %d flows", sweepLo+i, r.FlowsBlocked, r.FlowsPassed, n)
			}
			if r.FlowsBlocked > prev {
				rep.fail("/%d blocks %d flows, more than /%d's %d", sweepLo+i, r.FlowsBlocked, sweepLo+i-1, prev)
			}
			prev = r.FlowsBlocked
			put(r.FlowsBlocked)
			put(r.PayloadBlocked)
			put(r.BlockedSources.Len())
			put(r.PassedSources.Len())
		}
		return hex.EncodeToString(h.Sum(nil))[:16], nil
	}
	rs, err := spendRepeats(o, tr, repeat)
	if err != nil {
		return nil, err
	}
	checkDigests(rep, o, rs, sweepDigest)
	if median(spill) <= 0 {
		rep.fail("no spill segment was written; the budget of %d bytes should force every worker to spill", sweepBudget)
	}
	summarize(rep, setups, rs, float64(flows), "flows")
	rep.linef("scale 1/%.0f, prefix sweep /%d../%d, spill budget %d KiB per worker, %.1f MiB written per repeat",
		1/sweepScale, sweepLo, sweepHi, sweepBudget>>10, median(spill))
	if tr != nil {
		root.End()
		spans := tr.Spans()
		self := selfTimes(spans)
		l := rep.layer
		l["simnet.world_s"] = median(setups)
		l["simnet.control_s"] = spanMedian(spans, self, "simnet.ControlSample")
		l["ipset.compress_s"] = spanMedian(spans, self, "ipset.Compress")
		l["ipset.image_s"] = spanMedian(spans, self, "ipset.image")
		l["ipset.blockcount_s"] = spanMedian(spans, self, "ipset.BlockCount")
		l["blocklist.sweepset_s"] = spanMedian(spans, self, "blocklist.SweepSet")
		l["simnet.stream_s"] = spanMedian(spans, self, "simnet.StreamFlows")
		l["simnet.spill_write_mib"] = median(spill)
		l["blocklist.consume_s"] = spanMedian(spans, self, "blocklist.Consume")
		l["blocklist.consume_ns_per_flow"] = l["blocklist.consume_s"] * 1e9 / float64(max(flows, 1))
		procLayers(rep, rs)
		l["trace.overhead_pct"] = overheadPct(rs)
		finishTrace(o, tr)
	}
	return rep, nil
}

// runHypothesis is the §4 pipeline: experiments.Figure2–Figure5 at the
// paper's 1000 draws on a dataset from experiments.Build, repeated.
func runHypothesis(o *options) (*report, error) {
	rep := newReport()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	root := tr.Start("run", spanRef{})
	cfg := experiments.Default()
	cfg.Scale = hypoScale
	cfg.Seed = worldSeed
	var ds *experiments.Dataset
	setups, err := timeSetups(func() error {
		sp := tr.Start("experiments.Build", root)
		defer sp.End()
		d, err := experiments.Build(cfg)
		if err != nil {
			return err
		}
		d.Cfg.Seed = o.seed // the figures' Monte-Carlo draws
		ds = d
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	draws := 0
	repeat := func() (string, error) {
		sp := tr.Start("repeat", root)
		defer sp.End()
		h := sha256.New()
		s := tr.Start("experiments.Figure2", sp)
		f2, err := experiments.Figure2(ds)
		s.End()
		if err != nil {
			return "", err
		}
		s = tr.Start("experiments.Figure3", sp)
		f3, err := experiments.Figure3(ds)
		s.End()
		if err != nil {
			return "", err
		}
		s = tr.Start("experiments.Figure4", sp)
		f4, err := experiments.Figure4(ds)
		s.End()
		if err != nil {
			return "", err
		}
		s = tr.Start("experiments.Figure5", sp)
		f5, err := experiments.Figure5(ds)
		s.End()
		if err != nil {
			return "", err
		}
		for _, r := range []interface{ Render() string }{f2, f3, f4, f5} {
			h.Write([]byte(r.Render()))
		}
		// One Monte-Carlo estimate per Figure 2 and Figure 5, one per
		// panel of Figures 3 and 4; each takes cfg.Draws draws.
		draws = cfg.Draws * (2 + len(f3.Order) + len(f4.Order))
		return hex.EncodeToString(h.Sum(nil))[:16], nil
	}
	rs, err := spendRepeats(o, tr, repeat)
	if err != nil {
		return nil, err
	}
	checkDigests(rep, o, rs, hypoDigest)
	summarize(rep, setups, rs, float64(draws), "draws")
	rep.linef("scale 1/%.0f, %d draws per estimate, %d draws per repeat", 1/hypoScale, cfg.Draws, draws)
	if tr != nil {
		root.End()
		spans := tr.Spans()
		self := selfTimes(spans)
		l := rep.layer
		l["experiments.build_s"] = median(setups)
		for i := 2; i <= 5; i++ {
			l[fmt.Sprintf("experiments.fig%d_s", i)] = spanMedian(spans, self, fmt.Sprintf("experiments.Figure%d", i))
		}
		procLayers(rep, rs)
		l["trace.overhead_pct"] = overheadPct(rs)
		finishTrace(o, tr)
	}
	return rep, nil
}
