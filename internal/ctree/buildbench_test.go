package ctree

import (
	"fmt"
	"runtime"
	"testing"

	"mrcc/internal/synthetic"
)

// BenchmarkTreeBuild isolates phase one (the Counting-tree build) on
// the bench dataset — 15 dims, 10 subspace clusters, 15% noise, seed
// 314, the same generator settings BenchmarkBetaSearch uses — at
// several sizes, at Workers=1 and Workers=GOMAXPROCS (more sort
// goroutines, the identical tree). It reports
// points/s alongside allocs/op so the build's two acceptance numbers —
// throughput and build-phase allocations — are read off one run:
//
//	go test -bench BenchmarkTreeBuild -run '^$' ./internal/ctree
func BenchmarkTreeBuild(b *testing.B) {
	for _, bc := range []struct {
		points, dims int
	}{
		{10000, 15},
		{100000, 15},
	} {
		ds, _, err := synthetic.Generate(synthetic.Config{
			Dims: bc.dims, Points: bc.points, Clusters: 10, NoiseFrac: 0.15,
			MinClusterDim: 8, MaxClusterDim: 13, Seed: 314,
		})
		if err != nil {
			b.Fatal(err)
		}
		run := func(b *testing.B, workers int) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr, err := Build(ds, 4, BuildOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if tr.Eta != ds.Len() {
					b.Fatalf("Eta = %d, want %d", tr.Eta, ds.Len())
				}
			}
			b.StopTimer()
			secsPerOp := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(ds.Len())/secsPerOp, "points/s")
		}
		b.Run(fmt.Sprintf("n=%d/d=%d", bc.points, bc.dims), func(b *testing.B) {
			run(b, 1)
		})
		b.Run(fmt.Sprintf("n=%d/d=%d/workers=gomaxprocs", bc.points, bc.dims), func(b *testing.B) {
			run(b, runtime.GOMAXPROCS(0))
		})
	}
}
