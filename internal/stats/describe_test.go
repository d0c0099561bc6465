package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHarmonicMean(t *testing.T) {
	if h := HarmonicMean(1, 1); h != 1 {
		t.Errorf("H(1,1) = %g", h)
	}
	if h := HarmonicMean(0.5, 1); math.Abs(h-2.0/3.0) > 1e-12 {
		t.Errorf("H(0.5,1) = %g, want 2/3", h)
	}
	if HarmonicMean(0, 1) != 0 || HarmonicMean(1, -2) != 0 {
		t.Error("non-positive inputs must yield 0")
	}
	// Property: H(a,b) <= min(a,b) ... actually H <= geometric <= arithmetic;
	// check H is bounded by both inputs' max and is symmetric.
	f := func(a, b float64) bool {
		a = math.Abs(a)
		b = math.Abs(b)
		if a == 0 || b == 0 || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		h := HarmonicMean(a, b)
		return h <= math.Max(a, b)+1e-9 && math.Abs(h-HarmonicMean(b, a)) < 1e-9*(1+h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
