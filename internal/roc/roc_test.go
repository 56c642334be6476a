package roc

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestPointRates(t *testing.T) {
	p := Point{Threshold: 24, TP: 90, FP: 10, FN: 10, TN: 90}
	if p.TPR() != 0.9 || p.FPR() != 0.1 || p.Precision() != 0.9 {
		t.Fatalf("rates = %v %v %v", p.TPR(), p.FPR(), p.Precision())
	}
	var zero Point
	if zero.TPR() != 0 || zero.FPR() != 0 || zero.Precision() != 0 {
		t.Fatal("degenerate rates should be 0")
	}
}

func TestNewCurveSorts(t *testing.T) {
	c, err := NewCurve([]Point{
		{Threshold: 1, TP: 9, FN: 1, FP: 5, TN: 5}, // FPR .5
		{Threshold: 2, TP: 5, FN: 5, FP: 1, TN: 9}, // FPR .1
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Points[0].Threshold != 2 {
		t.Fatal("curve not sorted by FPR")
	}
	if _, err := NewCurve(nil); err == nil {
		t.Fatal("empty curve accepted")
	}
}

func TestAUCPerfectClassifier(t *testing.T) {
	// One point at (FPR 0, TPR 1): AUC must be 1.
	c, _ := NewCurve([]Point{{TP: 10, FN: 0, FP: 0, TN: 10}})
	if auc := c.AUC(); math.Abs(auc-1) > 1e-12 {
		t.Fatalf("perfect AUC = %v", auc)
	}
}

func TestAUCChanceDiagonal(t *testing.T) {
	// Points on the diagonal: AUC 0.5.
	var points []Point
	for _, frac := range []int{2, 5, 8} {
		points = append(points, Point{
			TP: frac, FN: 10 - frac,
			FP: frac, TN: 10 - frac,
		})
	}
	c, _ := NewCurve(points)
	if auc := c.AUC(); math.Abs(auc-0.5) > 1e-12 {
		t.Fatalf("diagonal AUC = %v", auc)
	}
}

func TestAUCBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		var points []Point
		for i := 0; i+3 < len(raw); i += 4 {
			points = append(points, Point{
				Threshold: float64(i),
				TP:        int(raw[i]), FP: int(raw[i+1]),
				FN: int(raw[i+2]), TN: int(raw[i+3]),
			})
		}
		c, err := NewCurve(points)
		if err != nil {
			return true
		}
		auc := c.AUC()
		return auc >= -1e-9 && auc <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(20071024))}); err != nil {
		t.Fatal(err)
	}
}

func TestBestYouden(t *testing.T) {
	c, _ := NewCurve([]Point{
		{Threshold: 24, TP: 9, FN: 1, FP: 5, TN: 5},  // J = .9 - .5 = .4
		{Threshold: 26, TP: 8, FN: 2, FP: 1, TN: 9},  // J = .8 - .1 = .7
		{Threshold: 30, TP: 2, FN: 8, FP: 0, TN: 10}, // J = .2
	})
	if best := c.Best(); best.Threshold != 26 {
		t.Fatalf("Best threshold = %v, want 26", best.Threshold)
	}
}

func TestCurveString(t *testing.T) {
	c, _ := NewCurve([]Point{{Threshold: 24, TP: 1, FN: 1, FP: 1, TN: 1}})
	s := c.String()
	for _, want := range []string{"threshold", "AUC"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q", want)
		}
	}
}
