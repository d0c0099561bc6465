package shard

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/synthetic"
)

// BenchmarkShardBuild measures the sharded build pipeline end to end
// over one on-disk CSV of the bench dataset (100k points, 15 dims, 10
// subspace clusters, 15% noise, seed 314). The shards=1 row is the
// single-process baseline: dataset.LoadCSVFile plus a serial
// ctree.Build, the exact work the sharded rows spread out. The shards=2
// and shards=4 rows time Run over that many in-process loopback
// workers (partition, per-shard parse and build, snapshot streaming)
// plus the ctree.Union of its shard trees, and report their speedup
// over shards=1; the first sharded iteration must give a tree
// ctree.Equal to the serial one. Speedups are capped by the CPU count,
// so the scripts/bench_floors.sh speedup floor belongs on multi-core
// runners:
//
//	go test -run '^$' -bench BenchmarkShardBuild ./internal/shard
func BenchmarkShardBuild(b *testing.B) {
	const h = 4
	ds, _, err := synthetic.Generate(synthetic.Config{
		Dims: 15, Points: 100000, Clusters: 10, NoiseFrac: 0.15,
		MinClusterDim: 8, MaxClusterDim: 13, Seed: 314,
	})
	if err != nil {
		b.Fatal(err)
	}
	csv := filepath.Join(b.TempDir(), "points.csv")
	if err := ds.SaveCSVFile(csv); err != nil {
		b.Fatal(err)
	}
	serialBuild := func(b *testing.B) *ctree.Tree {
		onDisk, err := dataset.LoadCSVFile(csv, false)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := ctree.Build(onDisk, h, ctree.BuildOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	var (
		serial        *ctree.Tree
		serialNsPerOp float64
	)
	b.Run("shards=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			serial = serialBuild(b)
		}
		nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(ds.Len())/(nsPerOp/1e9), "points/s")
		// The baseline is the fastest shards=1 run seen, single-build
		// calibration runs and every -count repeat included (each
		// sub-benchmark repeats before the next starts), so the GC load
		// a long loop of serial builds carries cannot flatter the
		// speedup.
		if serialNsPerOp == 0 || nsPerOp < serialNsPerOp {
			serialNsPerOp = nsPerOp
		}
	})
	for _, w := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards=%d", w), func(b *testing.B) {
			if serial == nil { // shards=1 filtered out: build the reference untimed
				serial = serialBuild(b)
			}
			addrs := startWorkers(b, w)
			jobs, err := JobsForCSV(csv, false, w, Job{H: h, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trees, _, err := Run(context.Background(), Options{Addrs: addrs, Jobs: jobs})
				if err != nil {
					b.Fatal(err)
				}
				merged, err := ctree.Union(trees...)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 && !ctree.Equal(serial, merged) {
					b.Fatalf("shards=%d: merged tree differs from the serial build", w)
				}
			}
			b.StopTimer()
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(float64(ds.Len())/(nsPerOp/1e9), "points/s")
			if serialNsPerOp > 0 {
				b.ReportMetric(serialNsPerOp/nsPerOp, "speedup")
			}
		})
	}
}
