package core

// White-box regression tests for the significance boundary of the
// β-cluster test (ISSUE 2). The paper's test (Section III-C) rejects
// the uniform null exactly when cPj > θjα. stats.BinomCriticalValue
// returns the smallest k with P(X >= k) <= α, so θ = k − 1: a count of
// exactly k must already be significant. An earlier version compared
// cP > k, silently demanding one count more than α requires; these
// tests pin the corrected boundary at cP == θ and cP == θ±1 so the
// off-by-one cannot regress in either direction.

import (
	"math"
	"testing"

	"mrcc/internal/stats"
)

func newTestSearcher(alpha float64) *searcher {
	return &searcher{
		cfg:       Config{Alpha: alpha},
		critCache: make(map[int]int),
	}
}

// TestSignificanceBoundary pins θ = BinomCriticalValue − 1 and the
// strict cP > θ comparison across a spread of neighborhood sizes and
// significance levels.
func TestSignificanceBoundary(t *testing.T) {
	for _, alpha := range []float64{DefaultAlpha, 1e-6, 0.01} {
		s := newTestSearcher(alpha)
		for _, n := range []int{6, 30, 100, 1000, 25000} {
			k := stats.BinomCriticalValue(n, 1.0/6.0, alpha)
			theta := s.criticalValue(n)
			if theta != k-1 {
				t.Errorf("alpha=%g n=%d: criticalValue = %d, want BinomCriticalValue−1 = %d",
					alpha, n, theta, k-1)
			}
			nP := int64(n)
			// cP == θ − 1 and cP == θ: still consistent with uniformity.
			if theta > 0 && s.isSignificant(int64(theta-1), nP) {
				t.Errorf("alpha=%g n=%d: cP = θ−1 = %d reported significant", alpha, n, theta-1)
			}
			if s.isSignificant(int64(theta), nP) {
				t.Errorf("alpha=%g n=%d: cP = θ = %d reported significant (boundary must not reject)",
					alpha, n, theta)
			}
			// cP == θ + 1 == k: the smallest count with tail ≤ α must reject.
			if !s.isSignificant(int64(theta+1), nP) {
				t.Errorf("alpha=%g n=%d: cP = θ+1 = %d not significant (old off-by-one regressed)",
					alpha, n, theta+1)
			}
		}
	}
}

// TestSignificanceTailSemantics cross-checks the boundary against the
// Binomial survival function directly: P(X ≥ θ+1) ≤ α < P(X ≥ θ) for
// every θ in (0, n]. This keeps the test honest even if
// BinomCriticalValue itself were to drift.
func TestSignificanceTailSemantics(t *testing.T) {
	const alpha = 1e-4
	s := newTestSearcher(alpha)
	for _, n := range []int{12, 60, 500} {
		theta := s.criticalValue(n)
		if theta < 0 || theta > n {
			t.Fatalf("n=%d: θ = %d out of range [0, %d]", n, theta, n)
		}
		if sf := math.Exp(stats.LogBinomSF(n, theta+1, 1.0/6.0)); sf > alpha {
			t.Errorf("n=%d: P(X ≥ θ+1) = %g > α = %g — rejection region too liberal", n, sf, alpha)
		}
		if theta > 0 {
			if sf := math.Exp(stats.LogBinomSF(n, theta, 1.0/6.0)); sf <= alpha {
				t.Errorf("n=%d: P(X ≥ θ) = %g ≤ α = %g — θ not the largest uniform-consistent count",
					n, sf, alpha)
			}
		}
	}
}

// TestSignificanceEmptyNeighborhood pins the degenerate guard: an empty
// neighborhood can never be significant, whatever cP claims.
func TestSignificanceEmptyNeighborhood(t *testing.T) {
	s := newTestSearcher(DefaultAlpha)
	if s.isSignificant(5, 0) {
		t.Error("empty neighborhood (nP = 0) reported significant")
	}
}

// TestCriticalValueCache pins the memoization and its hit/miss
// accounting path (nil collector must be safe, repeated n must return
// the cached θ).
func TestCriticalValueCache(t *testing.T) {
	s := newTestSearcher(DefaultAlpha)
	a := s.criticalValue(120)
	if got, ok := s.critCache[120]; !ok || got != a {
		t.Fatalf("critCache[120] = %d, %v; want %d, true", got, ok, a)
	}
	if b := s.criticalValue(120); b != a {
		t.Errorf("cached criticalValue(120) = %d, first call gave %d", b, a)
	}
}

// TestContainsPointInclusiveEdges pins the β-cluster box membership
// rule: bounds are inclusive on both edges, and irrelevant axes span
// the whole cube.
func TestContainsPointInclusiveEdges(t *testing.T) {
	b := &BetaCluster{
		L:        []float64{0.25, 0},
		U:        []float64{0.5, 1},
		Relevant: []bool{true, false},
	}
	cases := []struct {
		pt   []float64
		want bool
	}{
		{[]float64{0.25, 0.9}, true},          // exactly on L
		{[]float64{0.5, 0.1}, true},           // exactly on U
		{[]float64{0.375, 0}, true},           // irrelevant axis at 0
		{[]float64{0.375, 1 - 1e-9}, true},    // irrelevant axis at normEps edge
		{[]float64{0.25 - 1e-12, 0.5}, false}, // just below L
		{[]float64{0.5 + 1e-12, 0.5}, false},  // just above U
	}
	for _, c := range cases {
		if got := containsPoint(b, c.pt); got != c.want {
			t.Errorf("containsPoint(%v) = %v, want %v", c.pt, got, c.want)
		}
	}
}
