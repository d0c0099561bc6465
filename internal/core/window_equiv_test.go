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
// β-search: clustering the service's window tree (core.WindowTree), a
// tree grown by InsertBatch alone (core.FirstTouchTree) and the
// window's two trees themselves, as a pass does (core.RunTreeContext
// over core.WindowTrees' canonical aging and first-touch active trees),
// must give the same β-clusters — bounds, relevances, centers — and
// the same clusters as clustering ctree.Build of the same points with
// core.RunTree, at Workers 1, 2 and 8, on a drifting stream and on a
// rotated dataset. The window tree is merged into Build's arena order;
// the InsertBatch tree chains each cell's children in first-touch
// order, so its level index sorts every child run; the two-tree run
// reads the index of their union and writes no merged tree. Only the
// answers must agree.
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
		firstTouch := core.FirstTouchTree(t, ds.Points, ds.Dims, core.DefaultH, 1000)
		aging, active := core.WindowTrees(t, ds.Points, ds.Dims, core.DefaultH, 1000)
		if !ctree.Equal(built, window) || !ctree.Equal(built, firstTouch) {
			t.Fatalf("%s: the window or InsertBatch tree stores different cells than the build", name)
		}
		for _, workers := range []int{1, 2, 8} {
			cfg := core.Config{Workers: workers}
			want, err := core.RunTree(built, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Betas) == 0 {
				t.Fatalf("%s: no β-clusters, the comparison is vacuous", name)
			}
			t.Logf("%s workers=%d: %d β-clusters, %d clusters", name, workers, len(want.Betas), len(want.Clusters))
			for _, srcs := range [][]*ctree.Tree{{window}, {firstTouch}, {active, aging}} {
				got, err := core.RunTreeContext(context.Background(), srcs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsIdentical(t, want, got)
			}
		}
	}
}
