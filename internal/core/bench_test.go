package core_test

import (
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/synthetic"
)

func benchWorkload(b *testing.B) *dataset.Dataset {
	b.Helper()
	ds, _, err := synthetic.Generate(synthetic.Config{
		Dims: 10, Points: 20000, Clusters: 5, NoiseFrac: 0.15,
		MinClusterDim: 6, MaxClusterDim: 9, Seed: 17,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkRun measures the full three-phase pipeline.
func BenchmarkRun(b *testing.B) {
	ds := benchWorkload(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(ds, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindBetas isolates phase two over a pre-built tree.
func BenchmarkFindBetas(b *testing.B) {
	ds := benchWorkload(b)
	tree, err := ctree.Build(ds, core.DefaultH, ctree.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.ResetUsed()
		if _, err := core.RunOnTree(tree, ds, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSoftMemberships measures the soft-clustering extension.
func BenchmarkSoftMemberships(b *testing.B) {
	ds := benchWorkload(b)
	res, err := core.Run(ds, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SoftMemberships(ds, res); err != nil {
			b.Fatal(err)
		}
	}
}
