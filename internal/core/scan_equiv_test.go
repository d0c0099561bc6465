package core_test

import (
	"context"
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/synthetic"
)

// TestScanCacheEquivalence pins the cached incremental β-search
// (scancache.go, the default) bit-identical to the naive re-convolving
// scan it replaced (WithNaiveScan), end to end: same β-cluster list
// (bounds, relevances, centers), same clusters, same labels. Each entry
// additionally runs the cached scan through WithoutCacheRepair — the
// full eligibility re-walk — and pins it identical to the repaired
// default, so the repair-cursor optimization is swept over the same
// matrix. The matrix spans dims {5, 10, 18} × workers {1, 2, 8} ×
// face/full mask; the full mask is O(3^d) per cell, so it runs at d=5
// always and d=10 only without -short, never at d=18. Every entry but
// the d=10 full mask also runs the three scans over the index of the
// service's two window trees (core.WindowTrees) over the same points.
func TestScanCacheEquivalence(t *testing.T) {
	cases := []struct {
		name     string
		gen      synthetic.Config
		fullMask bool
		workers  int
		longOnly bool
	}{
		{
			name: "d5_face_w1",
			gen: synthetic.Config{Dims: 5, Points: 4000, Clusters: 2, NoiseFrac: 0.1,
				MinClusterDim: 3, MaxClusterDim: 5, Seed: 101},
			workers: 1,
		},
		{
			name: "d5_face_w2",
			gen: synthetic.Config{Dims: 5, Points: 4000, Clusters: 2, NoiseFrac: 0.1,
				MinClusterDim: 3, MaxClusterDim: 5, Seed: 101},
			workers: 2,
		},
		{
			name: "d5_face_w8",
			gen: synthetic.Config{Dims: 5, Points: 4000, Clusters: 2, NoiseFrac: 0.1,
				MinClusterDim: 3, MaxClusterDim: 5, Seed: 101},
			workers: 8,
		},
		{
			name: "d5_full_w1",
			gen: synthetic.Config{Dims: 5, Points: 4000, Clusters: 2, NoiseFrac: 0.1,
				MinClusterDim: 3, MaxClusterDim: 5, Seed: 102},
			fullMask: true,
			workers:  1,
		},
		{
			name: "d5_full_w8",
			gen: synthetic.Config{Dims: 5, Points: 4000, Clusters: 2, NoiseFrac: 0.1,
				MinClusterDim: 3, MaxClusterDim: 5, Seed: 102},
			fullMask: true,
			workers:  8,
		},
		{
			name: "d10_face_w1",
			gen: synthetic.Config{Dims: 10, Points: 8000, Clusters: 3, NoiseFrac: 0.15,
				MinClusterDim: 5, MaxClusterDim: 8, Seed: 103},
			workers: 1,
		},
		{
			name: "d10_face_w2",
			gen: synthetic.Config{Dims: 10, Points: 8000, Clusters: 3, NoiseFrac: 0.15,
				MinClusterDim: 5, MaxClusterDim: 8, Seed: 103},
			workers: 2,
		},
		{
			name: "d10_face_w8",
			gen: synthetic.Config{Dims: 10, Points: 8000, Clusters: 3, NoiseFrac: 0.15,
				MinClusterDim: 5, MaxClusterDim: 8, Seed: 103},
			workers: 8,
		},
		{
			name: "d10_full_w1",
			gen: synthetic.Config{Dims: 10, Points: 6000, Clusters: 2, NoiseFrac: 0.1,
				MinClusterDim: 5, MaxClusterDim: 8, Seed: 104},
			fullMask: true,
			workers:  1,
			longOnly: true,
		},
		{
			name: "d18_face_w1",
			gen: synthetic.Config{Dims: 18, Points: 12000, Clusters: 2, NoiseFrac: 0.1,
				MinClusterDim: 12, MaxClusterDim: 16, Seed: 105},
			workers:  1,
			longOnly: true,
		},
		{
			name: "d18_face_w2",
			gen: synthetic.Config{Dims: 18, Points: 12000, Clusters: 2, NoiseFrac: 0.1,
				MinClusterDim: 12, MaxClusterDim: 16, Seed: 105},
			workers:  2,
			longOnly: true,
		},
		{
			name: "d18_face_w8",
			gen: synthetic.Config{Dims: 18, Points: 12000, Clusters: 2, NoiseFrac: 0.1,
				MinClusterDim: 12, MaxClusterDim: 16, Seed: 105},
			workers:  8,
			longOnly: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.longOnly && testing.Short() {
				t.Skip("skipping large equivalence entry in -short mode")
			}
			ds, _ := genSmall(t, tc.gen)
			cachedCfg := core.Config{Workers: tc.workers}
			if tc.fullMask {
				cachedCfg = core.WithFullMask(cachedCfg)
			}
			naiveCfg := core.WithNaiveScan(cachedCfg)
			fullCfg := core.WithoutCacheRepair(cachedCfg)
			naive, err := core.Run(context.Background(), core.Input{Dataset: ds}, naiveCfg)
			if err != nil {
				t.Fatalf("naive run: %v", err)
			}
			cached, err := core.Run(context.Background(), core.Input{Dataset: ds}, cachedCfg)
			if err != nil {
				t.Fatalf("cached run: %v", err)
			}
			noRepair, err := core.Run(context.Background(), core.Input{Dataset: ds}, fullCfg)
			if err != nil {
				t.Fatalf("no-repair run: %v", err)
			}
			assertResultsIdentical(t, naive, cached)
			assertResultsIdentical(t, cached, noRepair)
			if len(naive.Betas) == 0 {
				t.Fatal("degenerate table entry: no β-clusters found, equivalence is vacuous")
			}
			// The same points as the service's two window trees: the three
			// scans over the index of their union must agree with each
			// other and with the one-tree run (labels and cluster sizes
			// aside: a run over trees has no dataset to label).
			if tc.fullMask && tc.longOnly {
				return // 3^10 path lookups per cell and pass: the d5 entries cover it
			}
			aging, active := core.WindowTrees(t, ds.Points, ds.Dims, core.DefaultH, 500)
			var pair []*core.Result
			for _, cfg := range []core.Config{naiveCfg, cachedCfg, fullCfg} {
				res, err := core.Run(context.Background(), core.Input{Trees: []*ctree.Tree{aging, active}}, cfg)
				if err != nil {
					t.Fatalf("two-tree run: %v", err)
				}
				pair = append(pair, res)
			}
			cached.Labels = nil
			for i := range cached.Clusters {
				cached.Clusters[i].Size = 0
			}
			for _, res := range pair {
				assertResultsIdentical(t, cached, res)
			}
		})
	}
}

// TestScanCacheEquivalenceAllUsed is the exhausted-tree edge case: a
// tree arriving with every stored cell set in its Used column (a
// snapshot an older release saved after a completed search, say) is
// indistinguishable from a fresh one, because the β-search keeps its
// own flags and never reads the column. Both scans must agree with
// each other and with a run on an untouched tree.
func TestScanCacheEquivalenceAllUsed(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 6, Points: 3000, Clusters: 2, NoiseFrac: 0.1,
		MinClusterDim: 3, MaxClusterDim: 5, Seed: 110,
	})
	run := func(naive, exhaust bool) *core.Result {
		t.Helper()
		tr, err := ctree.Build(ds, core.DefaultH, ctree.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if exhaust {
			c := tr.Columns()
			c.Used = make([]bool, c.Rows())
			for r := 1; r < len(c.Used); r++ {
				c.Used[r] = true
			}
			if tr, err = ctree.NewFromColumns(tr.D, tr.H, tr.Eta, c); err != nil {
				t.Fatal(err)
			}
		}
		cfg := core.Config{H: tr.H}
		if naive {
			cfg = core.WithNaiveScan(cfg)
		}
		res, err := core.Run(context.Background(), core.Input{Dataset: ds, Trees: []*ctree.Tree{tr}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	naive, cached := run(true, true), run(false, true)
	assertResultsIdentical(t, naive, cached)
	fresh := run(false, false)
	assertResultsIdentical(t, fresh, cached)
	if len(fresh.Betas) == 0 {
		t.Fatal("degenerate dataset: no β-clusters found, equivalence is vacuous")
	}
}

// TestScanCacheEquivalenceSingleCellLevel is the degenerate-level edge
// case: all points inside one tiny box store exactly one cell per level,
// so every level's scan order has length one and the cached early exit
// must still match the naive walk.
func TestScanCacheEquivalenceSingleCellLevel(t *testing.T) {
	ds := &dataset.Dataset{Dims: 4}
	for i := 0; i < 600; i++ {
		p := make([]float64, 4)
		for j := range p {
			p[j] = 0.001 + float64(i%7)*1e-5 + float64(j)*1e-6
		}
		ds.Points = append(ds.Points, p)
	}
	naive, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.WithNaiveScan(core.Config{}))
	if err != nil {
		t.Fatalf("naive run: %v", err)
	}
	cached, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
	if err != nil {
		t.Fatalf("cached run: %v", err)
	}
	assertResultsIdentical(t, naive, cached)
	tr, err := ctree.Build(ds, core.DefaultH, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= tr.H-1; h++ {
		if n := core.LevelIndexes(t, tr)[h-1].Len(); n != 1 {
			t.Fatalf("level %d stores %d cells, want 1 (edge case is vacuous)", h, n)
		}
	}
}

// TestScanCacheEquivalenceAtLimits runs the cached and the naive scan
// end to end at the tree's two size limits, on tiny inputs: d =
// ctree.MaxDims, where a loc fills 63 bits, and H = ctree.MaxLevels,
// where the finest scanned level's grid coordinates are 59 bits wide,
// so the bounds the overlap check derives from a path multiply a 59-bit
// integer by 2^-59. Both results must be identical and non-empty.
func TestScanCacheEquivalenceAtLimits(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  synthetic.Config
		H    int
	}{
		{"d63_H4", synthetic.Config{Dims: ctree.MaxDims, Points: 1500, Clusters: 2, NoiseFrac: 0.1,
			MinClusterDim: 60, MaxClusterDim: 63, Seed: 120}, 4},
		{"d4_H60", synthetic.Config{Dims: 4, Points: 1500, Clusters: 2, NoiseFrac: 0.1,
			MinClusterDim: 2, MaxClusterDim: 4, Seed: 121}, ctree.MaxLevels},
	} {
		t.Run(c.name, func(t *testing.T) {
			ds, _ := genSmall(t, c.gen)
			cfg := core.Config{H: c.H}
			naive, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.WithNaiveScan(cfg))
			if err != nil {
				t.Fatalf("naive run: %v", err)
			}
			cached, err := core.Run(context.Background(), core.Input{Dataset: ds}, cfg)
			if err != nil {
				t.Fatalf("cached run: %v", err)
			}
			assertResultsIdentical(t, naive, cached)
			if len(naive.Betas) == 0 {
				t.Fatal("degenerate input: no β-clusters found, equivalence is vacuous")
			}
		})
	}
}
