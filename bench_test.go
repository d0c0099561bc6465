// Benchmarks: one testing.B target per table/figure of the paper's
// evaluation (the experiment IDs of DESIGN.md). They run scaled-down
// workloads so `go test -bench=.` finishes on a laptop; the full-size
// regeneration lives in cmd/experiments.
//
// Every benchmark reports quality as a custom metric next to the timing,
// so a regression in either shows up in the same place.
package mrcc_test

import (
	"context"
	"fmt"
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/eval"
	"mrcc/internal/experiments"
	"mrcc/internal/synthetic"
)

// benchScale shrinks the catalogue datasets for the bench run.
const benchScale = 0.08

func benchDataset(b *testing.B, name string) (*dataset.Dataset, *synthetic.GroundTruth) {
	b.Helper()
	cfg, err := synthetic.CatalogueConfig(name)
	if err != nil {
		b.Fatal(err)
	}
	ds, gt, err := synthetic.Generate(cfg.Scale(benchScale))
	if err != nil {
		b.Fatal(err)
	}
	return ds, gt
}

func reportQuality(b *testing.B, res *core.Result, gt *synthetic.GroundTruth) {
	b.Helper()
	rel := make([][]bool, len(res.Clusters))
	for i, c := range res.Clusters {
		rel[i] = c.Relevant
	}
	rep, err := eval.Compare(
		&eval.Clustering{Labels: res.Labels, Relevant: rel},
		&eval.Clustering{Labels: gt.Labels, Relevant: gt.Relevant},
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(rep.Quality, "quality")
	b.ReportMetric(rep.SubspacesQuality, "subspaceQ")
}

// BenchmarkFig4Alpha — Fig. 4a-c: MrCC across significance levels on the
// (scaled) 10d dataset; the Counting-tree is shared, as only phase two
// depends on α.
func BenchmarkFig4Alpha(b *testing.B) {
	ds, gt := benchDataset(b, "10d")
	tree, err := ctree.Build(ds, core.DefaultH, ctree.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, alpha := range []float64{1e-3, 1e-10, 1e-40, 1e-160} {
		b.Run(fmt.Sprintf("alpha=%.0e", alpha), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				tree.ResetUsed()
				var err error
				res, err = core.Run(context.Background(), core.Input{Dataset: ds, Trees: []*ctree.Tree{tree}}, core.Config{Alpha: alpha})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportQuality(b, res, gt)
		})
	}
}

// BenchmarkFig4H — Fig. 4d-f: MrCC across resolution counts on the
// (scaled) 10d dataset; time and memory grow with H, Quality saturates.
func BenchmarkFig4H(b *testing.B) {
	ds, gt := benchDataset(b, "10d")
	for _, h := range []int{4, 5, 10, 20} {
		b.Run(fmt.Sprintf("H=%d", h), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{H: h})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportQuality(b, res, gt)
		})
	}
}

// benchCompareGroup runs every method once per iteration on the named
// (scaled) dataset — the engine behind the Figure 5 comparisons. HARP
// runs on a subsample, exactly as in the harness, or its quadratic cost
// would dwarf every other bar.
func benchCompareGroup(b *testing.B, names []string) {
	b.Helper()
	opt := experiments.Options{Scale: 1, HarpCap: 400}
	for _, name := range names {
		ds, gt := benchDataset(b, name)
		for _, m := range experiments.Methods(opt) {
			method := m
			runDS, runGT := ds, gt
			if m.Name == "HARP" {
				runDS, runGT, _ = experiments.Subsample(ds, gt, opt.HarpCap)
			}
			b.Run(name+"/"+m.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := method.Run(runDS, runGT, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig5FirstGroup — Fig. 5a-c and 5s: all methods on (scaled)
// representatives of the first group.
func BenchmarkFig5FirstGroup(b *testing.B) {
	benchCompareGroup(b, []string{"6d", "12d", "18d"})
}

// BenchmarkFig5Noise — Fig. 5d-f: noise scaling endpoints.
func BenchmarkFig5Noise(b *testing.B) {
	benchCompareGroup(b, []string{"5o", "25o"})
}

// BenchmarkFig5Points — Fig. 5g-i: point scaling endpoints.
func BenchmarkFig5Points(b *testing.B) {
	benchCompareGroup(b, []string{"50k", "250k"})
}

// BenchmarkFig5Clusters — Fig. 5j-l: cluster scaling endpoints.
func BenchmarkFig5Clusters(b *testing.B) {
	benchCompareGroup(b, []string{"5c", "25c"})
}

// BenchmarkFig5Dims — Fig. 5m-o: dimensionality scaling endpoints.
func BenchmarkFig5Dims(b *testing.B) {
	benchCompareGroup(b, []string{"5d_s", "30d_s"})
}

// BenchmarkFig5Rotated — Fig. 5p-r: MrCC on rotated datasets (the
// paper's robustness-to-rotation claim).
func BenchmarkFig5Rotated(b *testing.B) {
	for _, name := range []string{"10d_r", "18d_r"} {
		ds, gt := benchDataset(b, name)
		b.Run(name+"/MrCC", func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
			}
			reportQuality(b, res, gt)
		})
	}
}

// BenchmarkFig5Subspaces — Fig. 5s: the Subspaces Quality evaluation
// itself (axis-set precision/recall over a full MrCC result).
func BenchmarkFig5Subspaces(b *testing.B) {
	ds, gt := benchDataset(b, "14d")
	res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	rel := make([][]bool, len(res.Clusters))
	for i, c := range res.Clusters {
		rel[i] = c.Relevant
	}
	found := &eval.Clustering{Labels: res.Labels, Relevant: rel}
	real := &eval.Clustering{Labels: gt.Labels, Relevant: gt.Relevant}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Compare(found, real); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Real — Fig. 5t: MrCC on the (scaled) KDD Cup 2008
// surrogate, left MLO view.
func BenchmarkFig5Real(b *testing.B) {
	ds, gt, err := synthetic.KDDCup2008Surrogate(synthetic.LeftMLO,
		synthetic.KDDConfig{ROIs: 4000, Seed: 2008})
	if err != nil {
		b.Fatal(err)
	}
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res, err = core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportQuality(b, res, gt)
}

// BenchmarkParallelPipeline measures the end-to-end pipeline — sharded
// tree build, chunked convolution scan, parallel labeling — across
// worker counts on a 100k-point, 10-dimensional dataset. Each
// sub-benchmark reports points/s; the workers>1 runs additionally
// report their wall-clock speedup over the workers=1 sub-benchmark of
// the same invocation. The equivalence suite
// (internal/core/parallel_equiv_test.go) separately proves the outputs
// are identical, so this benchmark only has to watch the clock.
func BenchmarkParallelPipeline(b *testing.B) {
	ds, gt, err := synthetic.Generate(synthetic.Config{
		Dims: 10, Points: 100000, Clusters: 5, NoiseFrac: 0.15,
		MinClusterDim: 5, MaxClusterDim: 10, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	var serialNsPerOp float64
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res, err = core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(float64(ds.Len())/(nsPerOp/1e9), "points/s")
			if workers == 1 {
				serialNsPerOp = nsPerOp
			} else if serialNsPerOp > 0 {
				b.ReportMetric(serialNsPerOp/nsPerOp, "speedup")
			}
			reportQuality(b, res, gt)
		})
	}
	// The observability layer promises < 2% wall-time overhead
	// (DESIGN.md §6): the serial run with stats on reports its overhead
	// relative to the plain workers=1 sub-benchmark above.
	b.Run("workers=1/stats", func(b *testing.B) {
		var res *core.Result
		for i := 0; i < b.N; i++ {
			res, err = core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{Workers: 1, CollectStats: true})
			if err != nil {
				b.Fatal(err)
			}
		}
		nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(ds.Len())/(nsPerOp/1e9), "points/s")
		if serialNsPerOp > 0 {
			b.ReportMetric(100*(nsPerOp-serialNsPerOp)/serialNsPerOp, "stats-overhead-%")
		}
		if res.Stats == nil {
			b.Fatal("CollectStats produced no stats")
		}
		reportQuality(b, res, gt)
	})
}

// BenchmarkScalingEta — T-cmplx: MrCC runtime versus the number of
// points (the paper's linearity-in-η claim).
func BenchmarkScalingEta(b *testing.B) {
	for _, eta := range []int{5000, 10000, 20000, 40000} {
		ds, _, err := synthetic.Generate(synthetic.Config{
			Dims: 10, Points: eta, Clusters: 5, NoiseFrac: 0.15,
			MinClusterDim: 5, MaxClusterDim: 10, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("eta=%d", eta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalingD — T-cmplx: MrCC runtime versus dimensionality (the
// quasi-linearity-in-d claim).
func BenchmarkScalingD(b *testing.B) {
	for _, d := range []int{5, 10, 20, 30} {
		ds, _, err := synthetic.Generate(synthetic.Config{
			Dims: d, Points: 10000, Clusters: 5, NoiseFrac: 0.15,
			MinClusterDim: 5, MaxClusterDim: d, Seed: 42,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScalingH — T-cmplx: Counting-tree build versus H (linear
// memory, super-linear time at depth, per Fig. 4e-f).
func BenchmarkScalingH(b *testing.B) {
	ds, _, err := synthetic.Generate(synthetic.Config{
		Dims: 10, Points: 10000, Clusters: 5, NoiseFrac: 0.15,
		MinClusterDim: 5, MaxClusterDim: 10, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, h := range []int{4, 8, 12, 16} {
		b.Run(fmt.Sprintf("H=%d", h), func(b *testing.B) {
			var tree *ctree.Tree
			for i := 0; i < b.N; i++ {
				tree, err = ctree.Build(ds, h, ctree.BuildOptions{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tree.MemoryBytes())/1024, "treeKB")
		})
	}
}

// BenchmarkAblationMask — A-mask: face-only versus full 3^d Laplacian
// mask (the paper's O(d) vs O(3^d) argument, Section III-B).
func BenchmarkAblationMask(b *testing.B) {
	ds, gt := benchDataset(b, "6d")
	for _, full := range []bool{false, true} {
		name, cfg := "face-only", core.Config{}
		if full {
			name, cfg = "full-mask", core.WithFullMask(cfg)
		}
		b.Run(name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Run(context.Background(), core.Input{Dataset: ds}, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportQuality(b, res, gt)
		})
	}
}

// BenchmarkAblationMDL — A-mdl: the MDL-tuned relevance cut versus
// fixed thresholds.
func BenchmarkAblationMDL(b *testing.B) {
	ds, gt := benchDataset(b, "10d")
	for _, thr := range []float64{0, 50, 95} {
		name := "MDL"
		if thr > 0 {
			name = fmt.Sprintf("fixed=%.0f", thr)
		}
		b.Run(name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.Run(context.Background(), core.Input{Dataset: ds}, core.WithRelevanceThreshold(core.Config{}, thr))
				if err != nil {
					b.Fatal(err)
				}
			}
			reportQuality(b, res, gt)
		})
	}
}
