package blocklist

import (
	"time"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
)

// This file implements one-pass streaming evaluation: flow records
// arrive in chunks (a day of synthesized traffic, a NetFlow datagram, a
// shard of an archive) and are scored against a compiled matcher without
// the log ever being materialized in memory. Rules match sources, not
// flows, so both evaluators cache per-source verdicts: repeat sources —
// the overwhelming majority of real traffic — skip the LPM probe and the
// source-set insert entirely. Memory is bounded by the distinct-source
// population, not the flow count.

// cacheBits sizes the Evaluator's direct-mapped verdict cache (2^13
// slots ≈ 48 KiB); collisions fall back to a fresh probe, never to a
// wrong verdict.
const cacheBits = 13

// compactThreshold bounds the pending (duplicate-bearing) entries in the
// source-set builders before they are compacted down to their distinct
// membership, keeping streaming memory proportional to distinct sources.
const compactThreshold = 1 << 20

// Evaluator scores a stream of flow records against one compiled
// blocklist, accumulating the same Eval a sequential scan of the
// concatenated log would produce. Feed it chunks with Consume and
// finish with Result. Not safe for concurrent use.
type Evaluator struct {
	m *Matcher

	flowsBlocked, flowsPassed, payloadBlocked int
	blocked, passed                           *ipset.Builder

	// Direct-mapped per-source verdict cache: keys holds the source
	// address, vals 0 (empty), 1 (blocked) or 2 (passed).
	cacheKeys []uint32
	cacheVals []uint8
}

// NewEvaluator returns a streaming evaluator over a compiled matcher.
func NewEvaluator(m *Matcher) *Evaluator {
	return &Evaluator{
		m:         m,
		blocked:   ipset.NewBuilder(0),
		passed:    ipset.NewBuilder(0),
		cacheKeys: make([]uint32, 1<<cacheBits),
		cacheVals: make([]uint8, 1<<cacheBits),
	}
}

// cacheSlot maps a source address onto the direct-mapped cache.
func cacheSlot(src uint32) uint32 {
	return (src * 2654435761) >> (32 - cacheBits)
}

// Consume scores one chunk of records. Chunks may arrive in any order;
// the accumulated Eval is order-independent.
func (ev *Evaluator) Consume(records []netflow.Record) {
	if len(records) == 0 {
		return
	}
	start := time.Now()
	for i := range records {
		r := &records[i]
		src := uint32(r.SrcAddr)
		h := cacheSlot(src)
		var isBlocked bool
		if ev.cacheKeys[h] == src && ev.cacheVals[h] != 0 {
			isBlocked = ev.cacheVals[h] == 1
		} else {
			isBlocked = ev.m.Blocks(r.SrcAddr)
			ev.cacheKeys[h] = src
			if isBlocked {
				ev.cacheVals[h] = 1
				ev.blocked.Add(r.SrcAddr)
			} else {
				ev.cacheVals[h] = 2
				ev.passed.Add(r.SrcAddr)
			}
		}
		if isBlocked {
			ev.flowsBlocked++
			if r.PayloadBearing() {
				ev.payloadBlocked++
			}
		} else {
			ev.flowsPassed++
		}
	}
	if ev.blocked.Len()+ev.passed.Len() > compactThreshold {
		compact(ev.blocked)
		compact(ev.passed)
	}
	elapsed := time.Since(start)
	evalSeconds.Observe(elapsed)
	evalFlows.Add(uint64(len(records)))
	lookupSeconds.Observe(elapsed / time.Duration(len(records)))
}

// compact collapses a builder's pending entries (which may hold
// duplicates from cache evictions) down to the distinct membership.
func compact(b *ipset.Builder) {
	s := b.Build() // resets b
	b.AddSet(s)
}

// Result finalizes and returns the accumulated evaluation. The
// evaluator may keep consuming afterwards; a later Result reflects the
// larger stream.
func (ev *Evaluator) Result() Eval {
	e := Eval{
		FlowsBlocked:   ev.flowsBlocked,
		FlowsPassed:    ev.flowsPassed,
		PayloadBlocked: ev.payloadBlocked,
	}
	e.BlockedSources = ev.blocked.Build()
	e.PassedSources = ev.passed.Build()
	// Builders were reset by Build; re-seed them with the built sets so
	// further Consume calls keep accumulating.
	ev.blocked.AddSet(e.BlockedSources)
	ev.passed.AddSet(e.PassedSources)
	return e
}

// SweepEvaluator scores a stream of flow records against every list of
// a MatcherSet at once — the §6 prefix sweep as a single pass. The
// per-source mask map doubles as the verdict cache: each distinct
// source is probed exactly once however many flows it emits.
type SweepEvaluator struct {
	ms *MatcherSet
	k  int

	flowsBlocked, flowsPassed, payloadBlocked []int
	sources                                   map[uint32]uint32 // src → list bitmask
}

// NewSweepEvaluator returns a streaming sweep evaluator.
func NewSweepEvaluator(ms *MatcherSet) *SweepEvaluator {
	k := ms.Lists()
	return &SweepEvaluator{
		ms:             ms,
		k:              k,
		flowsBlocked:   make([]int, k),
		flowsPassed:    make([]int, k),
		payloadBlocked: make([]int, k),
		sources:        make(map[uint32]uint32),
	}
}

// Consume scores one chunk of records against all lists.
func (sv *SweepEvaluator) Consume(records []netflow.Record) {
	if len(records) == 0 {
		return
	}
	start := time.Now()
	for i := range records {
		r := &records[i]
		src := uint32(r.SrcAddr)
		mask, ok := sv.sources[src]
		if !ok {
			mask = sv.ms.Mask(r.SrcAddr)
			sv.sources[src] = mask
		}
		payload := mask != 0 && r.PayloadBearing()
		for n := 0; n < sv.k; n++ {
			if mask>>uint(n)&1 == 1 {
				sv.flowsBlocked[n]++
				if payload {
					sv.payloadBlocked[n]++
				}
			} else {
				sv.flowsPassed[n]++
			}
		}
	}
	elapsed := time.Since(start)
	evalSeconds.Observe(elapsed)
	evalFlows.Add(uint64(len(records)))
	lookupSeconds.Observe(elapsed / time.Duration(len(records)))
}

// Sources returns the number of distinct sources seen so far.
func (sv *SweepEvaluator) Sources() int { return len(sv.sources) }

// Results finalizes the per-list evaluations: element i scores lists[i]
// (or prefix length lo+i for SweepSet) exactly as an Evaluator over
// that list alone would.
func (sv *SweepEvaluator) Results() []Eval {
	builders := make([]*ipset.Builder, 2*sv.k) // blocked then passed per list
	for i := range builders {
		builders[i] = ipset.NewBuilder(0)
	}
	for src, mask := range sv.sources {
		a := netaddr.Addr(src)
		for n := 0; n < sv.k; n++ {
			if mask>>uint(n)&1 == 1 {
				builders[2*n].Add(a)
			} else {
				builders[2*n+1].Add(a)
			}
		}
	}
	out := make([]Eval, sv.k)
	for n := 0; n < sv.k; n++ {
		out[n] = Eval{
			FlowsBlocked:   sv.flowsBlocked[n],
			FlowsPassed:    sv.flowsPassed[n],
			PayloadBlocked: sv.payloadBlocked[n],
			BlockedSources: builders[2*n].Build(),
			PassedSources:  builders[2*n+1].Build(),
		}
	}
	return out
}
