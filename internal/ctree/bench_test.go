package ctree

import (
	"fmt"
	"testing"

	"mrcc/internal/dataset"
	"mrcc/internal/synthetic"
)

func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		ds := uniformDataset(b, 10, n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(ds, 4, BuildOptions{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBuildParallel(b *testing.B) {
	ds := uniformDataset(b, 10, 20000, 1)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(ds, 4, BuildOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkInsert(b *testing.B) {
	ds := uniformDataset(b, 10, 10000, 1)
	tr, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	p := ds.Points[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnsureLevelIndexes times the level-index build — the
// level-by-level fill of the path and ref slabs plus the merge walks
// that find face neighbors and add up each entry's face sum — and
// reports the finished indexes' footprint as index-MB. The first two
// cases index the same 100k points (d = 15, H = 4, the stream-grow
// shape): "build" is the Build tree of the batch path; "window" is two
// halves fed by InsertBatch and merged by MergeFrom, which writes the
// same arena. (A snapshot that an older release saved in first-touch
// order is rewritten once at load; treeio's BenchmarkSnapshotLoad
// times that.) "union" is the service's rotated pass:
// UnionLevelIndexes over a 100k-point aging tree and the runs of 50k
// more points (ServiceRuns), BenchmarkWindowPass's window. It also
// reports the window's points indexed per second as points/s, the
// metric of its scripts/bench_floors.sh row.
//
//	go test -run '^$' -bench BenchmarkEnsureLevelIndexes ./internal/ctree
func BenchmarkEnsureLevelIndexes(b *testing.B) {
	const d, H = 15, 4
	ds := benchDataset(b, 100000)
	pts := ds.Points
	built, err := Build(ds, H, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	aging, active := New(d, H), New(d, H)
	growBatches(b, aging, pts[:len(pts)/2])
	growBatches(b, active, pts[len(pts)/2:])
	window := aging.Clone()
	if err := window.MergeFrom(active); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		tr   *Tree
	}{{"build", built}, {"window", window}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.tr.invalidateIndexes()
				bc.tr.EnsureLevelIndexes()
			}
			b.ReportMetric(float64(bc.tr.IndexMemoryBytes())/(1<<20), "index-MB")
		})
	}
	b.Run("union", func(b *testing.B) {
		const window = 100000
		pts := benchDataset(b, window+window/2).Points
		srcs := append(benchRuns(b, pts[window:]), benchAging(b, pts[:window]))
		var idxs []*LevelIndex
		var err error
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if idxs, err = UnionLevelIndexes(srcs...); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(pts))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		var bytes uint64
		for _, ix := range idxs {
			bytes += ix.MemoryBytes()
		}
		b.ReportMetric(float64(bytes)/(1<<20), "index-MB")
	})
}

// benchDataset generates the benchmarks' points: the stream-grow shape
// (d = 15, 10 subspace clusters, 15% noise, seed 314).
func benchDataset(b *testing.B, points int) *dataset.Dataset {
	ds, _, err := synthetic.Generate(synthetic.Config{
		Dims: 15, Points: points, Clusters: 10, NoiseFrac: 0.15,
		MinClusterDim: 8, MaxClusterDim: 13, Seed: 314,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// growBatches feeds dst by InsertBatch calls of 1000 points.
func growBatches(b *testing.B, dst *Tree, pts [][]float64) {
	for i := 0; i < len(pts); i += 1000 {
		if err := dst.InsertBatch(pts[i:min(i+1000, len(pts))]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRuns is ServiceRuns over pts at d = 15, H = 4 in 1000-point
// batches: the active runs of a service fed the stream-grow shape.
func benchRuns(b *testing.B, pts [][]float64) []*Tree {
	runs, err := ServiceRuns(pts, 15, 4, 1000)
	if err != nil {
		b.Fatal(err)
	}
	return runs
}

// benchAging is the aging tree a service holds once a pass united the
// retired runs of pts.
func benchAging(b *testing.B, pts [][]float64) *Tree {
	aging, err := Union(benchRuns(b, pts)...)
	if err != nil {
		b.Fatal(err)
	}
	return aging
}

// BenchmarkInsertBatch times Tree.InsertBatch on its own, on the
// stream-grow shape (benchDataset, d = 15), and reports points/s.
// "service" feeds an empty H = 4 tree to 50k points in 1000-point
// calls, each of which unites the whole tree with the batch's (the
// service itself keeps runs instead, ServiceRuns); "onecall" counts
// 100k points in one call; "multiword" is "service" at H = 6, where
// d·(H-1) = 75 > 64 puts each path key in H-1 words.
//
//	go test -run '^$' -bench BenchmarkInsertBatch -cpu 1 ./internal/ctree
func BenchmarkInsertBatch(b *testing.B) {
	pts := benchDataset(b, 100000).Points
	for _, bc := range []struct {
		name        string
		H, n, batch int
	}{
		{"service", 4, 50000, 1000},
		{"onecall", 4, 100000, 100000},
		{"multiword", 6, 50000, 1000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := New(15, bc.H)
				for lo := 0; lo < bc.n; lo += bc.batch {
					if err := tr.InsertBatch(pts[lo:min(lo+bc.batch, bc.n)]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(bc.n)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		})
	}
}

// BenchmarkUnion times the Union writes the program runs, on the
// stream-grow shape (d = 15, H = 4). "retire" unites the runs of 100k
// points (ServiceRuns), as the service's first pass after a rotation
// does. "window" unites the runs of 50k more points with the 100k-point
// aging tree, the tree a service snapshot or checkpoint saves.
// "shards=4" and "shards=8" unite the Build trees of 4 and 8
// contiguous shards of 100k points, what mrcc-shard -out and
// -check-serial write.
//
//	go test -run '^$' -bench BenchmarkUnion -cpu 1 ./internal/ctree
func BenchmarkUnion(b *testing.B) {
	const d, H = 15, 4
	pts := benchDataset(b, 150000).Points
	retired := benchRuns(b, pts[:100000])
	aging, err := Union(retired...)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, trees ...*Tree) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Union(trees...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("retire", retired...)
	run("window", append(benchRuns(b, pts[100000:]), aging)...)
	for _, w := range []int{4, 8} {
		shards := make([]*Tree, w)
		for i := range shards {
			part := &dataset.Dataset{Dims: d, Points: pts[i*100000/w : (i+1)*100000/w]}
			if shards[i], err = Build(part, H, BuildOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		run(fmt.Sprintf("shards=%d", w), shards...)
	}
}

func BenchmarkWalkLevel(b *testing.B) {
	ds := uniformDataset(b, 10, 20000, 1)
	tr, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		tr.WalkLevel(3, func(Path, Ref) { count++ })
	}
}
