package core_test

import (
	"context"
	"reflect"
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/synthetic"
)

// TestRunOnTreeTwiceIdentical pins the warm-start bugfix: a second run
// on the same tree returns exactly the clusters the first run did. This
// is the loop a long-running service (and the CLI's -load-tree path)
// executes continuously; a run that left its usedCell flags on the
// tree would make the next one skip every earlier winner cell and
// silently cluster on the leftovers.
func TestRunOnTreeTwiceIdentical(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 8, Points: 6000, Clusters: 3, NoiseFrac: 0.1,
		MinClusterDim: 4, MaxClusterDim: 6, Seed: 11,
	})
	tree, err := ctree.Build(ds, core.DefaultH, ctree.BuildOptions{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	first, err := core.Run(context.Background(), core.Input{Dataset: ds, Trees: []*ctree.Tree{tree}}, core.Config{})
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if len(first.Betas) == 0 {
		t.Fatal("degenerate dataset: no β-clusters, the rerun equivalence is vacuous")
	}
	second, err := core.Run(context.Background(), core.Input{Dataset: ds, Trees: []*ctree.Tree{tree}}, core.Config{})
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !reflect.DeepEqual(first.Betas, second.Betas) {
		t.Fatalf("rerun found different β-clusters: %d vs %d", len(first.Betas), len(second.Betas))
	}
	if !reflect.DeepEqual(first.Clusters, second.Clusters) {
		t.Fatal("rerun assembled different correlation clusters")
	}
	if !reflect.DeepEqual(first.Labels, second.Labels) {
		t.Fatal("rerun labeled points differently")
	}
}

// TestRunTreeMatchesRunOnTree pins the dataset-free clustering path
// the streaming service publishes views from: a run over a tree alone
// must find the same β-clusters and correlation clusters as a run over
// the same tree that labels its dataset, with labeling skipped (Labels
// nil, sizes zero).
func TestRunTreeMatchesRunOnTree(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 7, Points: 5000, Clusters: 2, NoiseFrac: 0.1,
		MinClusterDim: 4, MaxClusterDim: 5, Seed: 12,
	})
	tree, err := ctree.Build(ds, core.DefaultH, ctree.BuildOptions{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	full, err := core.Run(context.Background(), core.Input{Dataset: ds, Trees: []*ctree.Tree{tree}}, core.Config{})
	if err != nil {
		t.Fatalf("labeled run: %v", err)
	}
	bare, err := core.Run(context.Background(), core.Input{Trees: []*ctree.Tree{tree}}, core.Config{})
	if err != nil {
		t.Fatalf("tree-only run: %v", err)
	}
	if !reflect.DeepEqual(full.Betas, bare.Betas) {
		t.Fatal("tree-only run found different β-clusters than the labeled run")
	}
	if len(full.Clusters) != len(bare.Clusters) {
		t.Fatalf("tree-only run found %d clusters, labeled run %d", len(bare.Clusters), len(full.Clusters))
	}
	for i := range full.Clusters {
		if !reflect.DeepEqual(full.Clusters[i].Relevant, bare.Clusters[i].Relevant) ||
			!reflect.DeepEqual(full.Clusters[i].Betas, bare.Clusters[i].Betas) {
			t.Fatalf("cluster %d differs between the tree-only and the labeled run", i)
		}
	}
	if bare.Labels != nil {
		t.Fatal("tree-only run returned labels without a dataset")
	}
	for _, c := range bare.Clusters {
		if c.Size != 0 {
			t.Fatal("tree-only run reported a cluster size without labeling")
		}
	}
}

// TestRunMarksNoTree pins where a run keeps its usedCell flags: in its
// own searcher. No run marks a cell of a tree it clusters, whether it
// clusters one tree or several, so a snapshot saved after a run saves
// the Used column clear.
func TestRunMarksNoTree(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 8, Points: 6000, Clusters: 3, NoiseFrac: 0.1,
		MinClusterDim: 4, MaxClusterDim: 6, Seed: 12,
	})
	tree, err := ctree.Build(ds, core.DefaultH, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	aging, active := core.WindowTrees(t, ds.Points, ds.Dims, core.DefaultH, 1000)
	for _, trees := range [][]*ctree.Tree{{tree}, {active, aging}} {
		res, err := core.Run(context.Background(), core.Input{Trees: trees}, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Betas) == 0 {
			t.Fatal("no β-clusters; the check is vacuous")
		}
		for _, tr := range trees {
			for h := 1; h <= tr.H-1; h++ {
				tr.WalkLevel(h, func(p ctree.Path, r ctree.Ref) {
					if tr.Used(r) {
						t.Fatalf("a run over %d trees marked source cell %v used", len(trees), p)
					}
				})
			}
		}
	}
}
