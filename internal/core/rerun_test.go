package core_test

import (
	"context"
	"reflect"
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/synthetic"
)

// TestRunOnTreeTwiceIdentical pins the warm-start bugfix: a run over a
// given tree clears the tree's Used flags itself, so a second run on the same
// tree — with no manual ResetUsed in between — returns exactly the
// clusters the first run did. This is the loop a long-running service
// (and the CLI's -load-tree path) executes continuously; before the
// fix, the second run saw every first-run winner cell still marked
// Used and silently clustered on the leftovers.
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

// TestRunUsedFlagsStayOnOneTree pins where a run leaves its usedCell
// flags. A run over one tree marks that tree's cells exactly where its
// level index marks its entries, including every β-cluster's center, as
// a run always has, so a snapshot saved after the run keeps them. A run
// over several trees marks only its own index and leaves every source's
// flags clear: the service's aging tree is shared with snapshot saves.
func TestRunUsedFlagsStayOnOneTree(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 8, Points: 6000, Clusters: 3, NoiseFrac: 0.1,
		MinClusterDim: 4, MaxClusterDim: 6, Seed: 12,
	})
	tree, err := ctree.Build(ds, core.DefaultH, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), core.Input{Trees: []*ctree.Tree{tree}}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Betas) == 0 {
		t.Fatal("no β-clusters; the check is vacuous")
	}
	marked := 0
	for _, ix := range tree.EnsureLevelIndexes() {
		for i := 0; i < ix.Len(); i++ {
			if ix.Used(i) != tree.Used(ix.Ref(i, 0)) {
				t.Fatalf("level %d entry %d: index flag %v, tree flag %v", ix.Level, i, ix.Used(i), tree.Used(ix.Ref(i, 0)))
			}
			if ix.Used(i) {
				marked++
			}
		}
	}
	for _, b := range res.Betas {
		if r := tree.CellAt(b.Center); r == ctree.NilRef || !tree.Used(r) {
			t.Fatalf("β-cluster center %v is not marked used in the tree", b.Center)
		}
	}
	if marked < len(res.Betas) {
		t.Fatalf("%d cells marked for %d β-clusters", marked, len(res.Betas))
	}
	aging, active := core.WindowTrees(t, ds.Points, ds.Dims, core.DefaultH, 1000)
	if _, err := core.Run(context.Background(), core.Input{Trees: []*ctree.Tree{active, aging}}, core.Config{}); err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*ctree.Tree{active, aging} {
		for h := 1; h <= tr.H-1; h++ {
			tr.WalkLevel(h, func(p ctree.Path, r ctree.Ref) {
				if tr.Used(r) {
					t.Fatalf("a run over two trees marked source cell %v used", p)
				}
			})
		}
	}
}
