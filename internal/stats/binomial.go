// Package stats implements the statistical machinery MrCC relies on:
// binomial tail probabilities computed in log space (so significance
// levels as extreme as 1e-160 remain representable) and one-sided
// critical values for the null-hypothesis test of Algorithm 2.
//
// The survival function P(X >= k) for X ~ Binomial(n, p) equals the
// regularized incomplete beta function I_p(k, n-k+1); we evaluate it with
// the standard continued-fraction expansion using math.Lgamma, entirely
// from the standard library.
package stats

import (
	"fmt"
	"math"
)

// LogBinomSF returns ln P(X >= k) for X ~ Binomial(n, p).
func LogBinomSF(n, k int, p float64) float64 {
	checkBinomArgs(n, p)
	switch {
	case k <= 0:
		return 0 // P(X >= 0) = 1
	case k > n:
		return math.Inf(-1)
	case p == 0:
		return math.Inf(-1) // k >= 1 is impossible
	case p == 1:
		return 0
	}
	// P(X >= k) = I_p(k, n-k+1).
	return logRegIncBeta(float64(k), float64(n-k+1), p)
}

// BinomCriticalValue returns the smallest integer theta such that
// P(X >= theta) <= alpha for X ~ Binomial(n, p); this is the one-sided
// critical value of the MrCC null-hypothesis test: observing cP >= theta
// rejects uniformity at significance alpha. The result is in [1, n+1];
// n+1 means no achievable count is significant.
func BinomCriticalValue(n int, p, alpha float64) int {
	checkBinomArgs(n, p)
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("stats: alpha must be in (0,1), got %g", alpha))
	}
	logAlpha := math.Log(alpha)
	// LogBinomSF is non-increasing in k; binary search the boundary.
	lo, hi := 1, n+1 // invariant: SF(lo-1) > alpha possible, SF(hi) <= alpha
	for lo < hi {
		mid := lo + (hi-lo)/2
		if LogBinomSF(n, mid, p) <= logAlpha {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func checkBinomArgs(n int, p float64) {
	if n < 0 {
		panic(fmt.Sprintf("stats: binomial n must be >= 0, got %d", n))
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("stats: binomial p must be in [0,1], got %g", p))
	}
}

// logRegIncBeta returns ln I_x(a, b), the log of the regularized
// incomplete beta function, for a, b > 0 and x in (0, 1).
func logRegIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	if x >= 1 {
		return 0
	}
	lg := func(v float64) float64 { r, _ := math.Lgamma(v); return r }
	// ln of the prefactor x^a (1-x)^b / (a B(a,b)).
	logPre := lg(a+b) - lg(a) - lg(b) + a*math.Log(x) + b*math.Log1p(-x)
	if x < (a+1)/(a+b+2) {
		return logPre - math.Log(a) + math.Log(betacf(a, b, x))
	}
	// Use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a).
	other := math.Exp(logPre - math.Log(b) + math.Log(betacf(b, a, 1-x)))
	return math.Log1p(-other)
}

// betacf evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method (cf. Numerical Recipes §6.4).
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 500
		eps     = 3e-16
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			return h
		}
	}
	// The fraction converges extremely fast for the (k, n-k+1, 1/6)
	// arguments MrCC produces; reaching here means pathological inputs,
	// where the best estimate so far is still usable.
	return h
}
