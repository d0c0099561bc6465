package core_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/synthetic"
)

// driftingStream returns a synthetic subspace-cluster dataset in
// stream order — shuffled, then every cluster's centre moved along a
// fixed ±1 direction of its relevant axes in proportion to the point's
// position in the stream — so the two halves of the window hold the
// clusters at different places.
func driftingStream(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, gt := genSmall(t, synthetic.Config{
		Dims: 10, Points: 12000, Clusters: 3, NoiseFrac: 0.15,
		MinClusterDim: 4, MaxClusterDim: 8, Seed: 31,
	})
	rng := rand.New(rand.NewSource(32))
	rng.Shuffle(len(ds.Points), func(a, b int) {
		ds.Points[a], ds.Points[b] = ds.Points[b], ds.Points[a]
		gt.Labels[a], gt.Labels[b] = gt.Labels[b], gt.Labels[a]
	})
	dir := make([][]float64, len(gt.Relevant))
	for k := range dir {
		dir[k] = make([]float64, ds.Dims)
		for j := range dir[k] {
			if gt.Relevant[k][j] {
				dir[k][j] = float64(2*rng.Intn(2) - 1)
			}
		}
	}
	for i, p := range ds.Points {
		k := gt.Labels[i]
		if k < 0 {
			continue
		}
		shift := 0.08 * float64(i) / float64(len(ds.Points))
		for j := range p {
			p[j] = math.Min(math.Max(p[j]+shift*dir[k][j], 0), 1-1e-9)
		}
	}
	return ds
}

// TestWindowTreeMatchesBuild is the cross-path check for the served
// β-search: clustering a window tree (core.WindowTree), a window's two
// trees themselves (core.Run over core.WindowTrees' aging and active
// trees) and the service's own window as a pass reads it (its active
// runs of 1000-point batches, core.AddBatches, and its aging tree) must
// give the same β-clusters — bounds, relevances, centers — and the same
// clusters as clustering ctree.Build of the same points with core.Run,
// at Workers 1, 2 and 8, on a drifting stream and on a rotated dataset.
// The window tree is united into Build's arena order; the runs over
// several trees read the index of their union and write no merged tree.
// Only the answers must agree.
func TestWindowTreeMatchesBuild(t *testing.T) {
	rotated, _ := genSmall(t, synthetic.Config{
		Dims: 12, Points: 12000, Clusters: 3, NoiseFrac: 0.15,
		MinClusterDim: 7, MaxClusterDim: 10, Seed: 42, Rotations: 4,
	})
	for name, ds := range map[string]*dataset.Dataset{
		"drift":   driftingStream(t),
		"rotated": rotated,
	} {
		built, err := ctree.Build(ds, core.DefaultH, ctree.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		window := core.WindowTree(t, ds.Points, ds.Dims, core.DefaultH, 1000)
		aging, active := core.WindowTrees(t, ds.Points, ds.Dims, core.DefaultH, 1000)
		runs := append(core.AddBatches(t, ds.Points[len(ds.Points)/2:], ds.Dims, core.DefaultH, 1000), aging)
		if len(runs) < 3 {
			t.Fatalf("%s: the service's window is %d trees; the runs case is no wider than the two-tree one", name, len(runs))
		}
		if !ctree.Equal(built, window) {
			t.Fatalf("%s: the window tree stores different cells than the build", name)
		}
		for _, workers := range []int{1, 2, 8} {
			cfg := core.Config{Workers: workers}
			want, err := core.Run(context.Background(), core.Input{Trees: []*ctree.Tree{built}}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Betas) == 0 {
				t.Fatalf("%s: no β-clusters, the comparison is vacuous", name)
			}
			t.Logf("%s workers=%d: %d β-clusters, %d clusters", name, workers, len(want.Betas), len(want.Clusters))
			for _, srcs := range [][]*ctree.Tree{{window}, {active, aging}, runs} {
				got, err := core.Run(context.Background(), core.Input{Trees: srcs}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsIdentical(t, want, got)
			}
		}
	}
}

// TestRunLabelsOverSeveralTrees pins that a run over several trees
// labels a dataset exactly as a run over their Build tree does, given
// the points the trees counted together — the facade's Run over a Tree
// grown batch by batch — and refuses a dataset of another length.
func TestRunLabelsOverSeveralTrees(t *testing.T) {
	ds := driftingStream(t)
	built, err := ctree.Build(ds, core.DefaultH, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := core.Run(ctx, core.Input{Dataset: ds, Trees: []*ctree.Tree{built}}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	runs := core.AddBatches(t, ds.Points, ds.Dims, core.DefaultH, 1000)
	if len(runs) < 2 || len(want.Clusters) == 0 {
		t.Fatalf("%d runs, %d clusters; the comparison is vacuous", len(runs), len(want.Clusters))
	}
	got, err := core.Run(ctx, core.Input{Dataset: ds, Trees: runs}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsIdentical(t, want, got)
	short := &dataset.Dataset{Dims: ds.Dims, Points: ds.Points[1:]}
	if _, err := core.Run(ctx, core.Input{Dataset: short, Trees: runs}, core.Config{}); err == nil {
		t.Fatal("a dataset one point short of the trees' points was labeled")
	}
}
