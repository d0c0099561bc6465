package core_test

import (
	"context"
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/synthetic"
)

// TestParallelTreeSameClustering checks the clustering is identical
// whether the Counting-tree was built sequentially or from merged
// shards: cell iteration order differs between the two, so this pins
// the deterministic tie-breaking of the convolution scan.
func TestParallelTreeSameClustering(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 8, Points: 8000, Clusters: 3, NoiseFrac: 0.15,
		MinClusterDim: 5, MaxClusterDim: 7, Seed: 61,
	})
	seq, err := ctree.Build(ds, core.DefaultH, ctree.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ctree.Build(ds, core.DefaultH, ctree.BuildOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	resSeq, err := core.Run(context.Background(), core.Input{Dataset: ds, Trees: []*ctree.Tree{seq}}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	resPar, err := core.Run(context.Background(), core.Input{Dataset: ds, Trees: []*ctree.Tree{par}}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resSeq.Betas) != len(resPar.Betas) {
		t.Fatalf("β-cluster counts differ: %d vs %d", len(resSeq.Betas), len(resPar.Betas))
	}
	for i := range resSeq.Betas {
		if resSeq.Betas[i].Center.Compare(resPar.Betas[i].Center) != 0 {
			t.Fatalf("β-cluster %d centers differ", i)
		}
	}
	for i := range resSeq.Labels {
		if resSeq.Labels[i] != resPar.Labels[i] {
			t.Fatalf("label %d differs: %d vs %d", i, resSeq.Labels[i], resPar.Labels[i])
		}
	}
}
