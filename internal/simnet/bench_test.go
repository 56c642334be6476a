package simnet

import (
	"testing"
	"time"

	"unclean/internal/netflow"
)

// BenchmarkSortByTime sorts one synthesized day in generation order,
// the input every spill run and every unspilled day hands the sort.
// Restoring the unsorted copy is excluded from the timing.
func BenchmarkSortByTime(b *testing.B) {
	w := getWorld(b)
	day := w.synthesizeDay(w.DayIndex(date(2006, 10, 2)), DefaultFlowOptions(), nil, nil)
	recs := make([]netflow.Record, len(day))
	var keys []timeKey
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(recs, day)
		b.StartTimer()
		keys = sortByTime(recs, keys)
	}
	b.ReportMetric(float64(len(day)), "records")
}

// BenchmarkStreamFlowsSpilled streams three days under a spill budget
// of 2000 records per run, so every day goes through spill, segment
// read-back and the k-way merge.
func BenchmarkStreamFlowsSpilled(b *testing.B) {
	w := getWorld(b)
	opts := DefaultFlowOptions()
	opts.SpillBudget = recordMemBytes * 2000
	opts.SpillDir = b.TempDir()
	flows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flows = 0
		err := w.StreamFlows(date(2006, 10, 1), date(2006, 10, 3), opts, func(_ time.Time, recs []netflow.Record) error {
			flows += len(recs)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(flows)*float64(b.N)/b.Elapsed().Seconds(), "flows/s")
}
