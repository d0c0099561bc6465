package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// LogBinomPMF returns ln P(X = k) for X ~ Binomial(n, p), the term
// bruteLogSF sums. It returns -Inf for impossible outcomes and panics
// on invalid inputs.
func LogBinomPMF(n, k int, p float64) float64 {
	checkBinomArgs(n, p)
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if p == 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	if p == 1 {
		if k == n {
			return 0
		}
		return math.Inf(-1)
	}
	lg := func(x float64) float64 { v, _ := math.Lgamma(x); return v }
	return lg(float64(n)+1) - lg(float64(k)+1) - lg(float64(n-k)+1) +
		float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
}

// bruteLogSF computes ln P(X >= k) by direct log-sum-exp over the PMF,
// the reference the continued-fraction implementation must match.
func bruteLogSF(n, k int, p float64) float64 {
	if k <= 0 {
		return 0
	}
	if k > n {
		return math.Inf(-1)
	}
	maxLog := math.Inf(-1)
	logs := make([]float64, 0, n-k+1)
	for i := k; i <= n; i++ {
		l := LogBinomPMF(n, i, p)
		logs = append(logs, l)
		if l > maxLog {
			maxLog = l
		}
	}
	if math.IsInf(maxLog, -1) {
		return math.Inf(-1)
	}
	sum := 0.0
	for _, l := range logs {
		sum += math.Exp(l - maxLog)
	}
	return maxLog + math.Log(sum)
}

func TestLogBinomPMFBasics(t *testing.T) {
	// Binomial(4, 0.5): P(X=2) = 6/16.
	got := math.Exp(LogBinomPMF(4, 2, 0.5))
	if math.Abs(got-6.0/16.0) > 1e-12 {
		t.Errorf("P(X=2 | 4, 0.5) = %g, want 0.375", got)
	}
	if !math.IsInf(LogBinomPMF(4, 5, 0.5), -1) {
		t.Error("P(X=5 | n=4) should be 0")
	}
	if !math.IsInf(LogBinomPMF(4, -1, 0.5), -1) {
		t.Error("P(X=-1) should be 0")
	}
	if LogBinomPMF(4, 0, 0) != 0 {
		t.Error("P(X=0 | p=0) should be 1")
	}
	if LogBinomPMF(4, 4, 1) != 0 {
		t.Error("P(X=4 | n=4, p=1) should be 1")
	}
}

func TestLogBinomPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 5, 17, 100} {
		for _, p := range []float64{1.0 / 6.0, 0.5, 0.93} {
			sum := 0.0
			for k := 0; k <= n; k++ {
				sum += math.Exp(LogBinomPMF(n, k, p))
			}
			if math.Abs(sum-1) > 1e-10 {
				t.Errorf("n=%d p=%g: PMF sums to %g", n, p, sum)
			}
		}
	}
}

func TestLogBinomSFMatchesBruteForce(t *testing.T) {
	for _, n := range []int{1, 6, 30, 200, 1000} {
		for _, p := range []float64{1.0 / 6.0, 0.25, 0.5, 0.9} {
			for k := 0; k <= n; k += 1 + n/17 {
				want := bruteLogSF(n, k, p)
				got := LogBinomSF(n, k, p)
				if math.IsInf(want, -1) && math.IsInf(got, -1) {
					continue
				}
				// Compare in log space with both absolute and relative slack.
				if math.Abs(got-want) > 1e-8+1e-8*math.Abs(want) {
					t.Errorf("n=%d k=%d p=%g: LogBinomSF=%.12g brute=%.12g", n, k, p, got, want)
				}
			}
		}
	}
}

func TestLogBinomSFMonotoneInK(t *testing.T) {
	n, p := 500, 1.0/6.0
	prev := 0.0
	for k := 1; k <= n; k++ {
		cur := LogBinomSF(n, k, p)
		if cur > prev+1e-12 {
			t.Fatalf("SF increased at k=%d: %g -> %g", k, prev, cur)
		}
		prev = cur
	}
}

func TestBinomSFExtremeTails(t *testing.T) {
	// The tail must stay finite and ordered even past 1e-160, the
	// paper's most extreme alpha.
	l1 := LogBinomSF(2000, 1500, 1.0/6.0)
	if math.IsInf(l1, -1) || l1 > math.Log(1e-100) {
		t.Errorf("deep tail log-probability %g not in expected range", l1)
	}
	l2 := LogBinomSF(2000, 1600, 1.0/6.0)
	if l2 >= l1 {
		t.Errorf("tail should shrink: SF(1600)=%g >= SF(1500)=%g", l2, l1)
	}
}

func TestBinomCriticalValueDefinition(t *testing.T) {
	for _, n := range []int{6, 60, 600, 6000} {
		for _, alpha := range []float64{1e-3, 1e-10, 1e-40, 1e-160} {
			theta := BinomCriticalValue(n, 1.0/6.0, alpha)
			if theta < 1 || theta > n+1 {
				t.Fatalf("n=%d alpha=%g: theta=%d out of range", n, alpha, theta)
			}
			logAlpha := math.Log(alpha)
			if theta <= n && LogBinomSF(n, theta, 1.0/6.0) > logAlpha {
				t.Errorf("n=%d alpha=%g: SF(theta=%d) > alpha", n, alpha, theta)
			}
			if theta > 1 && LogBinomSF(n, theta-1, 1.0/6.0) <= logAlpha {
				t.Errorf("n=%d alpha=%g: theta=%d not minimal", n, alpha, theta)
			}
		}
	}
}

func TestBinomCriticalValueAboveMean(t *testing.T) {
	// Property: the one-sided critical value always exceeds the mean n·p
	// for the significances MrCC uses.
	f := func(nRaw uint16, aExp uint8) bool {
		n := int(nRaw%5000) + 1
		alpha := math.Pow(10, -float64(aExp%30)-2) // 1e-2 .. 1e-31
		theta := BinomCriticalValue(n, 1.0/6.0, alpha)
		return float64(theta) > float64(n)/6.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBinomCriticalValueMonotoneInAlpha(t *testing.T) {
	n := 300
	prev := 0
	for _, alpha := range []float64{1e-2, 1e-5, 1e-10, 1e-20, 1e-40, 1e-80, 1e-160} {
		theta := BinomCriticalValue(n, 1.0/6.0, alpha)
		if theta < prev {
			t.Fatalf("critical value decreased for smaller alpha: %d -> %d", prev, theta)
		}
		prev = theta
	}
}

func TestBinomPanicsOnBadArgs(t *testing.T) {
	cases := []func(){
		func() { LogBinomPMF(-1, 0, 0.5) },
		func() { LogBinomSF(5, 2, -0.1) },
		func() { LogBinomSF(5, 2, 1.1) },
		func() { BinomCriticalValue(10, 0.5, 0) },
		func() { BinomCriticalValue(10, 0.5, 1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}
