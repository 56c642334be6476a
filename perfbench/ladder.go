package main

import (
	"fmt"
	"math"
)

// The open-loop ladder. Rates sit on a fixed geometric grid,
// ladderBase·ladderStep^i. The ladder climbs the grid ladderCoarse
// rungs at a time until a rung fails, then walks up one rung at a time
// from the last passing coarse rung and stops at the first failure. The
// answer is the highest rung that passed before that failure. A run
// climbs once from the bottom, then climbs again knees times from a few
// rungs below the answer, and reports the median of the answers.

const (
	ladderBase   = 20000.0
	ladderStep   = 1.0595 // 2^(1/12): twelve rungs per doubling
	ladderCoarse = 4
	ladderTop    = 60 // highest grid index (about 640k queries/s)
)

func ladderRate(i int) float64 { return ladderBase * math.Pow(ladderStep, float64(i)) }

// rungLimits are what a rung must meet to pass.
type rungLimits struct {
	p99us    float64 // latency limit on the p99 from due time
	failFrac float64 // share of queries unanswered, wrong or stale
}

// serveLimits holds for both serve workloads. The p99 limit is well
// above the stalls that are not queueing — the reload path's CPU bursts
// (a few ms each, every reloadEvery) and, on a virtual machine, the
// host taking a vCPU away for several ms — so a rung fails when queries
// queue, drop, or pile up, not when a stall happens to land in it.
var serveLimits = rungLimits{p99us: 50000, failFrac: 0.001}

// rungPasses decides one rung: the p99 under the limit, failures under
// the limit, and a backlog that does not grow.
func rungPasses(rate, p99us, failFrac float64, samples []int64, lim rungLimits) (bool, string) {
	switch {
	case math.IsNaN(p99us) || p99us >= lim.p99us:
		return false, fmt.Sprintf("p99 %.0fus >= %.0fus", p99us, lim.p99us)
	case failFrac >= lim.failFrac:
		return false, fmt.Sprintf("fail_frac %.4f >= %.4f", failFrac, lim.failFrac)
	case backlogGrows(samples, rate):
		return false, "backlog grows"
	}
	return true, "ok"
}

// backlogGrows reports whether the queries owed a reply rose through
// the phase: the median of the last quarter of samples exceeds the
// median of the first quarter by more than 5 ms of traffic (at least 64
// queries). A server keeping up owes a roughly constant number — the
// rate times its latency; one falling behind, or losing queries, owes
// more and more. Medians keep one transient stall (a reload, a GC) from
// reading as growth.
func backlogGrows(samples []int64, rate float64) bool {
	if len(samples) < 8 {
		return false
	}
	q := len(samples) / 4
	med := func(s []int64) float64 {
		v := make([]float64, len(s))
		for i, owed := range s {
			v[i] = float64(owed)
		}
		return median(v)
	}
	first, last := med(samples[:q]), med(samples[len(samples)-q:])
	return last-first > math.Max(64, rate*0.005)
}

// ladder walks the grid. Call next for the rung to run, then record its
// outcome, until next reports done.
type ladder struct {
	pass      map[int]bool
	lastPass  int // highest passing rung so far, -1 for none
	firstFail int // lowest failing rung so far, ladderTop+1 for none
	fine      bool
	cur       int
	coarse    int
}

// newLadder starts a walk at grid index start, climbing coarse rungs at
// a time until the first failure.
func newLadder(start, coarse int) *ladder {
	return &ladder{pass: map[int]bool{}, lastPass: -1, firstFail: ladderTop + 1, cur: start, coarse: coarse}
}

// next returns the grid index of the next rung to run.
func (l *ladder) next() (int, bool) {
	if len(l.pass) == 0 {
		return l.cur, true
	}
	if l.lastPass < 0 {
		// Nothing has passed yet: walk down from the failure.
		if l.cur == 0 {
			return 0, false
		}
		l.cur--
		return l.cur, true
	}
	if !l.fine {
		_, ran := l.pass[l.cur+l.coarse]
		if l.pass[l.cur] && l.cur+l.coarse <= ladderTop && !ran {
			l.cur += l.coarse
			return l.cur, true
		}
		l.fine = true
		l.cur = l.lastPass
	}
	if l.cur+1 < l.firstFail && l.cur+1 <= ladderTop && l.pass[l.cur] {
		l.cur++
		return l.cur, true
	}
	return 0, false
}

// record stores the outcome of rung i.
func (l *ladder) record(i int, ok bool) {
	l.pass[i] = ok
	if ok && i > l.lastPass && i < l.firstFail {
		l.lastPass = i
	}
	if !ok && i < l.firstFail {
		l.firstFail = i
	}
}

// best is the highest rung that passed below the first failure, or -1.
func (l *ladder) best() int { return l.lastPass }
