package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuantileKnown(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(s, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{0, 10}
	if got := Quantile(s, 0.5); got != 5 {
		t.Errorf("Quantile(0.5) of {0,10} = %v, want 5", got)
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("Quantile of singleton = %v, want 7", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	s := []float64{5, 1, 3}
	Quantile(s, 0.5)
	if s[0] != 5 || s[1] != 1 || s[2] != 3 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		sample := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				sample = append(sample, v)
			}
		}
		if len(sample) == 0 {
			return true
		}
		a := math.Abs(math.Mod(q1, 1))
		b := math.Abs(math.Mod(q2, 1))
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return Quantile(sample, a) <= Quantile(sample, b)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	s := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(s); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if sd := StdDev(s); math.Abs(sd-2.138089935) > 1e-6 {
		t.Errorf("StdDev = %v, want ~2.138", sd)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{3}) != 0 {
		t.Error("empty/degenerate cases should be 0")
	}
}

func TestSummarize(t *testing.T) {
	s := []float64{9, 1, 5, 3, 7}
	b := Summarize(s)
	if b.Min != 1 || b.Max != 9 || b.Median != 5 || b.N != 5 {
		t.Errorf("Summarize = %+v", b)
	}
	if b.Q1 != 3 || b.Q3 != 7 {
		t.Errorf("quartiles = %v, %v, want 3, 7", b.Q1, b.Q3)
	}
	if b.Mean != 5 {
		t.Errorf("mean = %v, want 5", b.Mean)
	}
	if b.String() == "" {
		t.Error("String empty")
	}
}

func TestSummarizeOrderInvariant(t *testing.T) {
	f := func(raw []float64) bool {
		sample := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) {
				sample = append(sample, v)
			}
		}
		if len(sample) == 0 {
			return true
		}
		a := Summarize(sample)
		shuffled := make([]float64, len(sample))
		copy(shuffled, sample)
		sort.Float64s(shuffled)
		b := Summarize(shuffled)
		return a == b && a.Min <= a.Q1 && a.Q1 <= a.Median && a.Median <= a.Q3 && a.Q3 <= a.Max
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Fatal(err)
	}
}

func TestEmpirical(t *testing.T) {
	e := NewEmpirical([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if e.N() != 10 {
		t.Fatalf("N = %d", e.N())
	}
	if got := e.FractionBelow(5); got != 0.4 {
		t.Errorf("FractionBelow(5) = %v, want 0.4", got)
	}
	if got := e.FractionBelow(100); got != 1 {
		t.Errorf("FractionBelow(100) = %v, want 1", got)
	}
	if got := e.FractionBelow(0); got != 0 {
		t.Errorf("FractionBelow(0) = %v, want 0", got)
	}
	if q := e.Quantile(0.95); q < 9 || q > 10 {
		t.Errorf("Quantile(0.95) = %v", q)
	}
	sum := e.Summary()
	if sum.Min != 1 || sum.Max != 10 {
		t.Errorf("Summary = %+v", sum)
	}
}

func TestEmpiricalCopiesInput(t *testing.T) {
	s := []float64{3, 1, 2}
	e := NewEmpirical(s)
	s[0] = 100
	if e.FractionBelow(50) != 1 {
		t.Fatal("Empirical shares storage with caller slice")
	}
}
