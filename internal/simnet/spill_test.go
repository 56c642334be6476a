package simnet

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"unclean/internal/netflow"
	"unclean/internal/stats"
)

func recordsIdentical(t *testing.T, label string, got, want []netflow.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d records, want %d", label, len(got), len(want))
	}
	// Compare through the segment encoding: it covers every
	// analysis-relevant field and normalizes time.Time representation
	// differences (a disk round trip rebuilds wall-clock UTC times that
	// are Equal but not structurally identical).
	var gb, wb [netflow.SegmentRecordSize]byte
	for i := range got {
		netflow.EncodeSegmentRecord(gb[:], &got[i])
		netflow.EncodeSegmentRecord(wb[:], &want[i])
		if gb != wb {
			t.Fatalf("%s: record %d differs:\n got %v\nwant %v", label, i, &got[i], &want[i])
		}
	}
}

// TestStreamFlowsSpillIdentical is the core external-memory guarantee:
// streaming with an aggressively small spill budget yields exactly the
// record sequence the in-memory path yields, chunk boundaries aside.
func TestStreamFlowsSpillIdentical(t *testing.T) {
	cfg := DefaultConfig(1.0 / 4096)
	cfg.Seed = 777
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	from := date(2006, 10, 1)
	to := date(2006, 10, 5)
	base := FlowOptions{BenignSourcesPerDay: 60, CandidateExtras: true}

	var want []netflow.Record
	if err := w.StreamFlows(from, to, base, func(_ time.Time, recs []netflow.Record) error {
		want = append(want, recs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// A budget of a few hundred records forces many spill runs per day.
	for _, budget := range []int{recordMemBytes * 100, recordMemBytes * 200, recordMemBytes * 5000, 1 << 30} {
		opts := base
		opts.SpillBudget = budget
		opts.SpillDir = t.TempDir()
		var got []netflow.Record
		calls := 0
		if err := w.StreamFlows(from, to, opts, func(_ time.Time, recs []netflow.Record) error {
			got = append(got, recs...)
			calls++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		recordsIdentical(t, "spilled stream", got, want)
		if calls == 0 {
			t.Fatal("fn never called")
		}
		// Segments must all be cleaned up.
		left, err := os.ReadDir(opts.SpillDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range left {
			if strings.Contains(e.Name(), "spill") {
				t.Fatalf("leftover spill segment %s", e.Name())
			}
		}
	}
}

// TestStreamFlowsSpillError proves a failing consumer aborts the merge
// and leaves no segment files behind.
func TestStreamFlowsSpillError(t *testing.T) {
	cfg := DefaultConfig(1.0 / 4096)
	cfg.Seed = 778
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := FlowOptions{
		BenignSourcesPerDay: 60,
		CandidateExtras:     true,
		SpillBudget:         recordMemBytes * 100,
		SpillDir:            t.TempDir(),
	}
	boom := os.ErrClosed
	err = w.StreamFlows(date(2006, 10, 1), date(2006, 10, 9), opts,
		func(time.Time, []netflow.Record) error { return boom })
	if err != boom {
		t.Fatalf("got %v, want consumer error", err)
	}
	left, err := os.ReadDir(opts.SpillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("%d files left after aborted stream", len(left))
	}
}

// TestStreamFlowsSpillBadDir surfaces a spill-directory failure as an
// error rather than wrong output.
func TestStreamFlowsSpillBadDir(t *testing.T) {
	cfg := DefaultConfig(1.0 / 4096)
	cfg.Seed = 779
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := FlowOptions{
		BenignSourcesPerDay: 60,
		SpillBudget:         recordMemBytes * 10,
		SpillDir:            filepath.Join(t.TempDir(), "does", "not", "exist"),
	}
	err = w.StreamFlows(date(2006, 10, 1), date(2006, 10, 2), opts,
		func(time.Time, []netflow.Record) error { return nil })
	if err == nil {
		t.Fatal("stream with unusable spill dir succeeded")
	}
}

// TestDayRunsDeliverEmpty checks an empty day still announces itself,
// matching the in-memory path's contract.
func TestDayRunsDeliverEmpty(t *testing.T) {
	r := &dayRuns{}
	calls := 0
	if err := r.deliver(&mergeBuffers{}, func(recs []netflow.Record) error {
		calls++
		if len(recs) != 0 {
			t.Fatalf("unexpected records: %d", len(recs))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("deliver called fn %d times, want 1", calls)
	}
}

// TestSmallBudgetSpillsManyRuns keeps TestStreamFlowsSpillIdentical's
// smallest budget honest: it must split every day of that window into
// at least 50 runs, enough to exercise the merge heap's deeper levels.
func TestSmallBudgetSpillsManyRuns(t *testing.T) {
	cfg := DefaultConfig(1.0 / 4096)
	cfg.Seed = 777
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := FlowOptions{BenignSourcesPerDay: 60, CandidateExtras: true}
	sp := &daySpiller{dir: t.TempDir(), budget: recordMemBytes * 100}
	for d := w.DayIndex(date(2006, 10, 1)); d <= w.DayIndex(date(2006, 10, 5)); d++ {
		r, err := w.synthesizeDayRuns(d, opts, sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		r.cleanup()
		if runs := len(r.counts) + 1; runs < 50 {
			t.Fatalf("day %v split into %d runs, want at least 50", w.Date(d), runs)
		}
	}
}

// TestMergeCursorsTiesGoToLowerRun checks the merge resolves equal
// start times to the lower run index, each run's own order kept.
func TestMergeCursorsTiesGoToLowerRun(t *testing.T) {
	t0 := date(2006, 10, 1)
	rec := func(sec int, id uint32) netflow.Record {
		return netflow.Record{Packets: id, First: t0.Add(time.Duration(sec) * time.Second)}
	}
	runs := [][]netflow.Record{
		{rec(5, 10), rec(5, 11), rec(9, 12)},
		{rec(0, 20), rec(5, 21), rec(5, 22)},
		{},
		{rec(5, 40), rec(9, 41)},
		{rec(0, 50), rec(5, 51)},
	}
	want := []uint32{20, 50, 10, 11, 21, 22, 40, 51, 12, 41}
	curs := make([]*runCursor, len(runs))
	for i := range runs {
		curs[i] = newMemCursor(runs[i])
	}
	var got []uint32
	if err := mergeCursors(curs, func(r *netflow.Record) error {
		got = append(got, r.Packets)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("merge order %v, want %v", got, want)
	}
}

// TestMergeCursorsMatchesStableSort merges up to 80 sorted runs of
// heavily tied records and checks the result against a stable sort of
// their concatenation, the order a whole-day sort would give.
func TestMergeCursorsMatchesStableSort(t *testing.T) {
	rng := stats.NewRNG(20071024)
	for trial := 0; trial < 30; trial++ {
		all := tiedRecords(rng, rng.Intn(4000), 50)
		var runs [][]netflow.Record
		for rest := all; len(rest) > 0; {
			n := min(len(rest), rng.Intn(100))
			run := slices.Clone(rest[:n])
			stableByTime(run)
			runs = append(runs, run)
			rest = rest[n:]
		}
		want := slices.Clone(all)
		stableByTime(want)
		curs := make([]*runCursor, len(runs))
		for i := range runs {
			curs[i] = newMemCursor(runs[i])
		}
		var got []netflow.Record
		if err := mergeCursors(curs, func(r *netflow.Record) error {
			got = append(got, *r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		recordsIdentical(t, "merged runs", got, want)
	}
}
