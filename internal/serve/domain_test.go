package serve

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"
)

// TestNewRefusesNonFiniteDomainScale pins the domain check: an axis
// whose width overflows (-1e308:1e308) or whose scale does (the
// subnormal width of 0:5e-324) would normalize the domain's edges to
// NaN (Inf·0 or 0·Inf), and with a WAL the bad point is appended before
// the fold fails, so no later boot could replay the log. New must
// refuse both domains before it opens the log.
func TestNewRefusesNonFiniteDomainScale(t *testing.T) {
	for _, dom := range []struct{ min, max []float64 }{
		{[]float64{0, 0}, []float64{5e-324, 1}},
		{[]float64{-1e308, 0}, []float64{1e308, 1}},
	} {
		cfg := Config{
			Dims: 2, Min: dom.min, Max: dom.max, ReclusterEvery: time.Hour,
			WALDir: filepath.Join(t.TempDir(), "wal"), WALSync: "always",
		}
		if s, err := New(cfg); err == nil {
			s.Close()
			t.Errorf("domain %v:%v accepted", dom.min, dom.max)
		}
	}
}

// TestDomainNormalizesIntoUnitInterval is the property the domain check
// keeps: for every accepted domain, however extreme its magnitude —
// bounds drawn across the whole float64 exponent range, widths down to
// the smallest subnormals — the domain's Min and Max, their neighbors
// inside the domain and values spread across it all normalize into
// [0,1).
func TestDomainNormalizesIntoUnitInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	extreme := func(minExp int) float64 {
		v := math.Ldexp(1+rng.Float64(), minExp+rng.Intn(1024-minExp))
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	accepted, tiny := 0, 0
	for i := 0; i < 20000; i++ {
		var lo, hi float64
		switch i % 3 {
		case 0: // two independent extreme bounds
			lo, hi = extreme(-1074), extreme(-1074)
		case 1: // an extreme bound and a width near the scale's limit
			lo = extreme(-1074)
			hi = lo + math.Ldexp(1+rng.Float64(), -1074+rng.Intn(60))
		default: // a subnormal-to-tiny width at zero
			hi = math.Ldexp(1+rng.Float64(), -1074+rng.Intn(60))
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		s, err := New(Config{Dims: 1, Min: []float64{lo}, Max: []float64{hi}, ReclusterEvery: time.Hour})
		if err != nil {
			continue
		}
		accepted++
		if hi-lo < 1e-300 {
			tiny++
		}
		vals := []float64{lo, hi, math.Nextafter(lo, hi), math.Nextafter(hi, lo)}
		for k := 0; k < 4; k++ {
			vals = append(vals, math.Min(math.Max(lo+rng.Float64()*(hi-lo), lo), hi))
		}
		for _, v := range vals {
			out, err := s.normalizePoint([]float64{v})
			if err != nil || !(out[0] >= 0 && out[0] < 1) {
				t.Fatalf("domain [%g, %g]: value %g normalizes to %v (err %v), want [0,1)", lo, hi, v, out, err)
			}
		}
	}
	if accepted < 5000 || tiny < 500 {
		t.Fatalf("only %d domains accepted, %d of them narrower than 1e-300; the property is barely exercised", accepted, tiny)
	}
}
