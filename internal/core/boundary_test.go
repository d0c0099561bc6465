package core_test

// Boundary-labeling regression tests (ISSUE 2): points sitting exactly
// on β-cluster bounds (containsPoint is inclusive on both edges) and
// values at the normalized upper edge 1 − normEps must land in the same
// cell — and get the same label — for every worker count, with and
// without the observability layer collecting stats.

import (
	"context"
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/synthetic"
)

// boundaryDataset is a clusterable synthetic dataset salted with points
// at exact Counting-tree cell boundaries (multiples of 2^-h for h up to
// the default H) and at the extreme normalized coordinates 0 and
// 1 − 1e-9 (the value dataset.Normalize assigns to each axis maximum).
func boundaryDataset(t *testing.T) (ds interface {
	Len() int
}, run func(cfg core.Config) *core.Result, extra int) {
	t.Helper()
	base, _ := genSmall(t, synthetic.Config{
		Dims: 6, Points: 4000, Clusters: 2, NoiseFrac: 0.1,
		MinClusterDim: 3, MaxClusterDim: 5, Seed: 7,
	})
	// Grid boundaries for every level of the default tree (H = 4 gives
	// cells of side 2^-1 .. 2^-3): 1/8 steps cover them all.
	edges := []float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1 - 1e-9}
	d := base.Dims
	for i, e := range edges {
		pt := make([]float64, d)
		for j := range pt {
			pt[j] = e
		}
		base.Append(pt)
		// A second point per edge that is on-boundary in one axis only,
		// so it can fall inside a β-cluster box edge without sitting in
		// a corner of the cube.
		pt2 := make([]float64, d)
		for j := range pt2 {
			pt2[j] = 0.3 + 0.05*float64(i%3)
		}
		pt2[i%d] = e
		base.Append(pt2)
		extra += 2
	}
	run = func(cfg core.Config) *core.Result {
		res, err := core.Run(context.Background(), core.Input{Dataset: base}, cfg)
		if err != nil {
			t.Fatalf("run (workers=%d, stats=%v): %v", cfg.Workers, cfg.CollectStats, err)
		}
		return res
	}
	return base, run, extra
}

// TestBoundaryLabelingWorkerEquivalence pins that the salted boundary
// points do not break the serial-equivalence guarantee: workers 1 vs N
// produce byte-identical β-clusters, clusters and labels, stats on or
// off.
func TestBoundaryLabelingWorkerEquivalence(t *testing.T) {
	_, run, _ := boundaryDataset(t)
	serial := run(core.Config{Workers: 1})
	for _, workers := range []int{2, 4, 8} {
		for _, stats := range []bool{false, true} {
			par := run(core.Config{Workers: workers, CollectStats: stats})
			assertResultsIdentical(t, serial, par)
			if stats && par.Stats == nil {
				t.Errorf("workers=%d: CollectStats set but Result.Stats is nil", workers)
			}
		}
	}
}

// TestBoundaryPointsAreLabeled pins the inclusive-bound labeling rule
// end to end: a point whose coordinates all equal a β-cluster bound
// must receive the same label as an interior twin nudged just inside,
// and the 1 − 1e-9 upper-edge points must be labeled without error for
// every worker count.
func TestBoundaryPointsAreLabeled(t *testing.T) {
	ds, run, extra := boundaryDataset(t)
	serial := run(core.Config{Workers: 1})
	n := ds.Len()
	if len(serial.Labels) != n {
		t.Fatalf("labels = %d, want %d", len(serial.Labels), n)
	}
	// The salted points occupy the last `extra` slots; each must carry a
	// valid label (a cluster ID or Noise — never out of range).
	for i := n - extra; i < n; i++ {
		lb := serial.Labels[i]
		if lb != core.Noise && (lb < 0 || lb >= serial.NumClusters()) {
			t.Errorf("boundary point %d: label %d out of range [0, %d)", i, lb, serial.NumClusters())
		}
	}
	par := run(core.Config{Workers: 4, CollectStats: true})
	for i := n - extra; i < n; i++ {
		if serial.Labels[i] != par.Labels[i] {
			t.Errorf("boundary point %d: serial label %d, parallel label %d",
				i, serial.Labels[i], par.Labels[i])
		}
	}
}
