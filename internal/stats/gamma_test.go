package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRegIncGammaKnownValues(t *testing.T) {
	// P(1, x) = 1 - e^-x (exponential CDF).
	for _, x := range []float64{0.1, 1, 2.5, 10} {
		want := 1 - math.Exp(-x)
		if got := RegIncGammaLower(1, x); math.Abs(got-want) > 1e-12 {
			t.Errorf("P(1, %g) = %g, want %g", x, got, want)
		}
	}
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.25, 1, 4} {
		want := math.Erf(math.Sqrt(x))
		if got := RegIncGammaLower(0.5, x); math.Abs(got-want) > 1e-12 {
			t.Errorf("P(0.5, %g) = %g, want erf=%g", x, got, want)
		}
	}
}

func TestRegIncGammaComplement(t *testing.T) {
	f := func(aRaw, xRaw float64) bool {
		a := math.Abs(aRaw)
		x := math.Abs(xRaw)
		if a == 0 || a > 1e6 || x > 1e6 || math.IsNaN(a) || math.IsNaN(x) {
			return true
		}
		p := RegIncGammaLower(a, x)
		q := RegIncGammaUpper(a, x)
		return p >= 0 && p <= 1 && q >= 0 && q <= 1 && math.Abs(p+q-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRegIncGammaEdges(t *testing.T) {
	if RegIncGammaLower(3, 0) != 0 || RegIncGammaUpper(3, 0) != 1 {
		t.Error("x=0 edge wrong")
	}
	for _, fn := range []func(){
		func() { RegIncGammaLower(0, 1) },
		func() { RegIncGammaLower(-1, 1) },
		func() { RegIncGammaUpper(1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid args")
				}
			}()
			fn()
		}()
	}
}

func TestChiSquareSFKnownValues(t *testing.T) {
	// chi2 with 1 df: P(X >= 3.841) ~= 0.05; with 2 df: SF(x) = e^{-x/2}.
	if got := ChiSquareSF(3.841, 1); math.Abs(got-0.05) > 1e-3 {
		t.Errorf("SF(3.841, 1) = %g, want ~0.05", got)
	}
	for _, x := range []float64{1, 4, 10} {
		want := math.Exp(-x / 2)
		if got := ChiSquareSF(x, 2); math.Abs(got-want) > 1e-10 {
			t.Errorf("SF(%g, 2) = %g, want %g", x, got, want)
		}
	}
	if ChiSquareSF(0, 5) != 1 || ChiSquareSF(-3, 5) != 1 {
		t.Error("non-positive x must give SF 1")
	}
}

func TestPoissonSFBasics(t *testing.T) {
	// P(X >= 1) = 1 - e^-lambda.
	for _, lambda := range []float64{0.5, 2, 7} {
		want := 1 - math.Exp(-lambda)
		if got := PoissonSF(1, lambda); math.Abs(got-want) > 1e-12 {
			t.Errorf("PoissonSF(1, %g) = %g, want %g", lambda, got, want)
		}
	}
	if PoissonSF(0, 3) != 1 {
		t.Error("P(X >= 0) must be 1")
	}
	if PoissonSF(5, 0) != 0 {
		t.Error("P(X >= 5 | lambda=0) must be 0")
	}
}

func TestPoissonSFMatchesDirectSum(t *testing.T) {
	// Compare against a direct PMF summation for moderate k, lambda.
	for _, lambda := range []float64{1.5, 6, 20} {
		for k := 1; k <= 40; k += 4 {
			// P(X >= k) = 1 - sum_{i<k} e^-l l^i / i!
			sum := 0.0
			term := math.Exp(-lambda)
			for i := 0; i < k; i++ {
				if i > 0 {
					term *= lambda / float64(i)
				}
				sum += term
			}
			want := 1 - sum
			if want < 0 {
				want = 0
			}
			got := PoissonSF(k, lambda)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("PoissonSF(%d, %g) = %g, want %g", k, lambda, got, want)
			}
		}
	}
}

func TestPoissonSFMonotone(t *testing.T) {
	prev := 1.0
	for k := 0; k <= 50; k++ {
		cur := PoissonSF(k, 10)
		if cur > prev+1e-12 {
			t.Fatalf("PoissonSF increased at k=%d", k)
		}
		prev = cur
	}
}
