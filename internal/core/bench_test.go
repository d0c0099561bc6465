package core_test

import (
	"context"
	"testing"
	"time"

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
		if _, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{}); err != nil {
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
		if _, err := core.Run(context.Background(), core.Input{Dataset: ds, Trees: []*ctree.Tree{tree}}, core.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBetaSearch isolates phase two — the β-cluster search over a
// pre-built Counting-tree — on a 100k-point, 15-dimensional dataset
// with 10 subspace clusters. The naive/workers=1 sub-benchmark is the
// per-pass re-convolving scan (the WithNaiveScan oracle); the cached
// sub-benchmarks are the default one-shot convolution cache at 1, 4 and
// 8 workers. Each sub-benchmark reports the phase-two wall time
// (betaSearch-ms: the run's LevelIndex plus BetaSearch stats rows)
// next to the full run-on-tree timing; the cached runs
// add their phase-two speedup over the naive baseline and their
// phase-two throughput (points/s = η ÷ phase-two seconds), the metric
// scripts/bench_floors.sh floors. The scan-equivalence suite
// (scan_equiv_test.go) separately proves the outputs identical, so this
// benchmark only has to watch the clock.
func BenchmarkBetaSearch(b *testing.B) {
	ds, _, err := synthetic.Generate(synthetic.Config{
		Dims: 15, Points: 100000, Clusters: 10, NoiseFrac: 0.15,
		MinClusterDim: 8, MaxClusterDim: 13, Seed: 314,
	})
	if err != nil {
		b.Fatal(err)
	}
	tree, err := ctree.Build(ds, core.DefaultH, ctree.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name    string
		naive   bool
		workers int
	}{
		{"naive/workers=1", true, 1},
		{"cached/workers=1", false, 1},
		{"cached/workers=4", false, 4},
		{"cached/workers=8", false, 8},
	}
	var naivePhase2 float64 // ns per op of the naive workers=1 baseline
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cfg := core.Config{Workers: tc.workers, CollectStats: true}
			if tc.naive {
				cfg = core.WithNaiveScan(cfg)
			}
			var res *core.Result
			var phase2 time.Duration
			for i := 0; i < b.N; i++ {
				res, err = core.Run(context.Background(), core.Input{Dataset: ds, Trees: []*ctree.Tree{tree}}, cfg)
				if err != nil {
					b.Fatal(err)
				}
				phase2 += res.Stats.LevelIndex.Wall() + res.Stats.BetaSearch.Wall()
			}
			if len(res.Betas) < 8 {
				b.Fatalf("only %d β-clusters found, want >= 8 (phase two underloaded)", len(res.Betas))
			}
			phase2NsPerOp := float64(phase2.Nanoseconds()) / float64(b.N)
			b.ReportMetric(phase2NsPerOp/1e6, "betaSearch-ms")
			if tc.naive {
				naivePhase2 = phase2NsPerOp
				return
			}
			b.ReportMetric(float64(ds.Len())/(phase2NsPerOp/1e9), "points/s")
			if naivePhase2 > 0 {
				b.ReportMetric(naivePhase2/phase2NsPerOp, "betaSearch-speedup")
			}
		})
	}
}

// BenchmarkSoftMemberships measures the soft-clustering extension.
func BenchmarkSoftMemberships(b *testing.B) {
	ds := benchWorkload(b)
	res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
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
