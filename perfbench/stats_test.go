package main

import (
	"math"
	"math/rand"
	"testing"

	"mrcc/internal/synthetic"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 9, 8, 7, 6, 10}
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of four = %g, want the lower middle 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Errorf("percentile of no samples is not NaN")
	}
}

func TestErrorRate(t *testing.T) {
	for _, c := range []struct {
		failed, attempted int
		want              float64
	}{
		{0, 10, 0}, {1, 4, 0.25}, {3, 3, 1}, {0, 0, 1},
	} {
		if got := errorRate(c.failed, c.attempted); got != c.want {
			t.Errorf("errorRate(%d, %d) = %g, want %g", c.failed, c.attempted, got, c.want)
		}
	}
}

func TestMetricsRecordSampleCounts(t *testing.T) {
	m := metrics{}
	m.setSample("lat", []float64{4, 2, 8}, 50, "ms")
	m.set("rss", 12, "MB")
	if got := m["lat"]; got.Value != 4 || got.N != 3 || got.Unit != "ms" {
		t.Errorf("lat = %+v", got)
	}
	if got := m["rss"]; got.N != 0 {
		t.Errorf("a plain value carries sample count %d", got.N)
	}
}

func TestCalibrationNormalize(t *testing.T) {
	// Rounds at twice the nominal time: the host ran at half speed, so
	// the measured CPU time halves.
	c := calibration{2 * calibNominal, 2.2 * calibNominal, 1.8 * calibNominal}
	if got := c.normalize(3); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("normalize(3) = %g, want 1.5", got)
	}
	if got := calibrate(); !(got > 0) {
		t.Errorf("a calibration round took %g s of CPU", got)
	}
}

func TestReorderShufflesWithinBlocks(t *testing.T) {
	n, block := 25, 10
	pts := make([][]float64, n)
	gt := &synthetic.GroundTruth{Labels: make([]int, n)}
	for i := range pts {
		pts[i] = []float64{float64(i), float64(i) / 2}
		gt.Labels[i] = i
	}
	reorder(rand.New(rand.NewSource(7)), pts, gt, block)
	moved := false
	for i, p := range pts {
		orig := int(p[0])
		if orig/block != i/block {
			t.Errorf("row %d came from block %d, not %d", i, orig/block, i/block)
		}
		if gt.Labels[i] != orig || p[1] != float64(orig)/2 {
			t.Errorf("row %d: label %d and axes %v do not follow point %d", i, gt.Labels[i], p, orig)
		}
		moved = moved || orig != i
	}
	if !moved {
		t.Errorf("no row moved")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin("pass", -1)
	tr.do("clone", root, func() {})
	tr.do("scan", root, func() {})
	tr.end(root)
	sum := map[string]spanSummary{}
	for _, s := range tr.summary() {
		sum[s.name] = s
	}
	if sum["pass"].count != 1 || sum["clone"].count != 1 {
		t.Fatalf("summary %+v", sum)
	}
	children := sum["clone"].totalMs + sum["scan"].totalMs
	if d := sum["pass"].totalMs - children - sum["pass"].self; math.Abs(d) > 1e-9 {
		t.Errorf("self time %g is not total %g minus children %g", sum["pass"].self, sum["pass"].totalMs, children)
	}
	if n := len(tr.durations("scan")); n != 1 {
		t.Errorf("%d scan durations, want 1", n)
	}
}
