package mdl

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCutBimodal(t *testing.T) {
	// Typical MrCC relevance profile: irrelevant axes near 30, relevant
	// near 98. The cut must land exactly at the gap.
	o := []float64{25.3, 25.9, 27.5, 33.1, 95.2, 97.8, 99.1, 99.9, 100}
	p, _ := Cut(o)
	if o[p] != 95.2 {
		t.Errorf("cut threshold = %g at p=%d, want 95.2", o[p], p)
	}
	if thr := Threshold(o); thr != 95.2 {
		t.Errorf("Threshold = %g, want 95.2", thr)
	}
}

func TestCutConstantArrayIsOnePartition(t *testing.T) {
	// A constant array has no structure: the paper's cut position 1
	// (empty lower partition) must win, keeping every axis relevant.
	o := []float64{100, 100, 100, 100, 100, 100}
	p, _ := Cut(o)
	if p != 0 {
		t.Errorf("constant array: cut at p=%d, want 0", p)
	}
}

func TestCutNearHomogeneousStaysHigh(t *testing.T) {
	// An all-high profile (every axis strongly concentrated) may be cut
	// inside the high group, but the threshold must stay well above the
	// irrelevant-axis band (~20-55): the consumer caps the threshold at
	// its relevance ceiling, and this guarantees no low axis sneaks in.
	o := []float64{91.0, 92.7, 95.0, 97.4, 99.7, 99.8, 99.9, 99.9, 100, 100, 100, 100, 100, 100}
	if thr := Threshold(o); thr < 80 {
		t.Errorf("near-homogeneous threshold %g fell into the irrelevant band", thr)
	}
}

func TestCutEdgeCases(t *testing.T) {
	if p, bits := Cut(nil); p != 0 || bits != 0 {
		t.Errorf("empty: got (%d, %g)", p, bits)
	}
	if p, _ := Cut([]float64{42}); p != 0 {
		t.Errorf("singleton: got p=%d", p)
	}
	if thr := Threshold(nil); thr != 0 {
		t.Errorf("Threshold(nil) = %g", thr)
	}
	if thr := Threshold([]float64{7}); thr != 7 {
		t.Errorf("Threshold([7]) = %g", thr)
	}
}

func TestCutTwoValues(t *testing.T) {
	// Clearly separated pair: cut between them.
	if p, _ := Cut([]float64{10, 90}); p != 1 {
		t.Errorf("separated pair: p=%d, want 1", p)
	}
	// Identical pair: homogeneous, everything relevant.
	if p, _ := Cut([]float64{50, 50}); p != 0 {
		t.Errorf("identical pair: p=%d, want 0", p)
	}
}

func TestCutIndexInRange(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		o := make([]float64, len(raw))
		for i, v := range raw {
			// Keep values in the relevance range (0, 100].
			o[i] = 1 + 99*rand.New(rand.NewSource(int64(i)+int64(v))).Float64()
		}
		sort.Float64s(o)
		p, bits := Cut(o)
		return p >= 0 && p < len(o) && bits >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCutRecoversPlantedGap(t *testing.T) {
	// Property: with a planted wide gap, the chosen threshold separates
	// low from high.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		nLow := 1 + rng.Intn(10)
		nHigh := 1 + rng.Intn(10)
		var o []float64
		for i := 0; i < nLow; i++ {
			o = append(o, 20+10*rng.Float64())
		}
		for i := 0; i < nHigh; i++ {
			o = append(o, 90+10*rng.Float64())
		}
		sort.Float64s(o)
		thr := Threshold(o)
		if thr < 80 {
			t.Fatalf("trial %d: threshold %g fails to separate %v", trial, thr, o)
		}
	}
}
