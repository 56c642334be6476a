package blocklist

import (
	"testing"

	"unclean/internal/ipset"
	"unclean/internal/netaddr"
	"unclean/internal/netflow"
	"unclean/internal/stats"
)

// streamLog builds a log with heavy source repetition (the streaming
// evaluators' cache hit path) alongside one-off sources.
func streamLog(rng *stats.RNG, n int) []netflow.Record {
	// A pool of repeat offenders plus fresh addresses.
	pool := make([]netaddr.Addr, 200)
	for i := range pool {
		pool[i] = netaddr.Addr(rng.Uint32())
	}
	records := make([]netflow.Record, n)
	for i := range records {
		var src netaddr.Addr
		if rng.Bool(0.7) {
			src = pool[rng.Intn(len(pool))]
		} else {
			src = netaddr.Addr(rng.Uint32())
		}
		records[i] = flowFrom(src.String(), rng.Bool(0.3))
	}
	return records
}

// referenceEval is the sequential trie scan: every flow probes the
// radix trie directly, with no compiled matcher and no verdict cache.
// The streaming evaluators are checked against it.
func referenceEval(tr *Trie, records []netflow.Record) Eval {
	blocked := ipset.NewBuilder(0)
	passed := ipset.NewBuilder(0)
	var e Eval
	for i := range records {
		r := &records[i]
		if tr.Blocks(r.SrcAddr) {
			e.FlowsBlocked++
			blocked.Add(r.SrcAddr)
			if r.PayloadBearing() {
				e.PayloadBlocked++
			}
		} else {
			e.FlowsPassed++
			passed.Add(r.SrcAddr)
		}
	}
	e.BlockedSources = blocked.Build()
	e.PassedSources = passed.Build()
	return e
}

func evalsEqual(a, b Eval) bool {
	return a.FlowsBlocked == b.FlowsBlocked &&
		a.FlowsPassed == b.FlowsPassed &&
		a.PayloadBlocked == b.PayloadBlocked &&
		a.BlockedSources.Equal(b.BlockedSources) &&
		a.PassedSources.Equal(b.PassedSources)
}

// TestEvaluatorMatchesEvaluate streams the log in uneven chunks and
// checks the accumulated Eval is identical to the sequential trie scan.
func TestEvaluatorMatchesEvaluate(t *testing.T) {
	rng := stats.NewRNG(5)
	tr := randomTrie(rng, 400)
	records := streamLog(rng, 30000)
	want := referenceEval(tr, records)

	ev := NewEvaluator(Compile(tr))
	for off := 0; off < len(records); {
		end := min(off+1+rng.Intn(4000), len(records))
		ev.Consume(records[off:end])
		off = end
	}
	got := ev.Result()
	if !evalsEqual(got, want) {
		t.Fatalf("streaming Eval differs from in-memory:\n got %d/%d/%d blocked=%d passed=%d\nwant %d/%d/%d blocked=%d passed=%d",
			got.FlowsBlocked, got.FlowsPassed, got.PayloadBlocked, got.BlockedSources.Len(), got.PassedSources.Len(),
			want.FlowsBlocked, want.FlowsPassed, want.PayloadBlocked, want.BlockedSources.Len(), want.PassedSources.Len())
	}

	// Result must not disturb further accumulation.
	ev.Consume(records[:100])
	again := ev.Result()
	if again.FlowsBlocked+again.FlowsPassed != want.FlowsBlocked+want.FlowsPassed+100 {
		t.Fatal("Consume after Result lost flows")
	}
}

// TestSweepEvaluatorMatchesPerListEvaluate checks the one-pass sweep
// produces, for every n, exactly the Eval a sequential trie scan
// against C_n would.
func TestSweepEvaluatorMatchesPerListEvaluate(t *testing.T) {
	rng := stats.NewRNG(13)
	b := ipset.NewBuilder(0)
	for i := 0; i < 300; i++ {
		b.Add(netaddr.Addr(rng.Uint32()))
	}
	seed := b.Build()
	const lo, hi = 24, 32
	ms, err := SweepSet(seed, lo, hi)
	if err != nil {
		t.Fatal(err)
	}

	// Half the traffic comes from inside the seed's /20 neighbourhoods so
	// the sweep actually blocks something at every n.
	records := make([]netflow.Record, 20000)
	for i := range records {
		var src netaddr.Addr
		if rng.Bool(0.5) {
			src = seed.At(rng.Intn(seed.Len()))&^0xfff | netaddr.Addr(rng.Uint32()&0xfff)
		} else {
			src = netaddr.Addr(rng.Uint32())
		}
		records[i] = flowFrom(src.String(), rng.Bool(0.3))
	}

	sv := NewSweepEvaluator(ms)
	for off := 0; off < len(records); {
		end := min(off+1+rng.Intn(3000), len(records))
		sv.Consume(records[off:end])
		off = end
	}
	got := sv.Results()
	if len(got) != hi-lo+1 {
		t.Fatalf("Results returned %d evals, want %d", len(got), hi-lo+1)
	}
	if sv.Sources() == 0 {
		t.Fatal("Sources = 0 after consuming traffic")
	}
	anyBlocked := false
	for n := lo; n <= hi; n++ {
		want := referenceEval(FromSet(seed, n, "sweep"), records)
		if !evalsEqual(got[n-lo], want) {
			t.Fatalf("sweep Eval at /%d differs from the trie scan", n)
		}
		if got[n-lo].FlowsBlocked > 0 {
			anyBlocked = true
		}
	}
	if !anyBlocked {
		t.Fatal("sweep blocked nothing; test traffic is not exercising the matcher")
	}
}
