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
// reports the finished indexes' footprint as index-MB. The first three
// cases index the same 100k points (d = 15, H = 4, the stream-grow
// shape) in both arena orders the pipeline sees. "build" is the
// canonical Build tree of the batch path; "window" is two
// InsertBatch-grown halves merged by MergeFrom, which writes the same
// path order; both fill each level from their arena order as it
// stands. "insertbatch" is the points grown by InsertBatch alone, whose
// first-touch levels get ordered before the fill merges them.
// "union" is the service's rotated pass: UnionLevelIndexes over a
// canonical 100k-point aging tree and a first-touch 50k-point active
// tree, BenchmarkWindowPass's window. It also reports the window's
// points indexed per second as points/s, the metric of its
// scripts/bench_floors.sh row.
//
//	go test -run '^$' -bench BenchmarkEnsureLevelIndexes ./internal/ctree
func BenchmarkEnsureLevelIndexes(b *testing.B) {
	const d, H = 15, 4
	gen := func(points int) *dataset.Dataset {
		ds, _, err := synthetic.Generate(synthetic.Config{
			Dims: d, Points: points, Clusters: 10, NoiseFrac: 0.15,
			MinClusterDim: 8, MaxClusterDim: 13, Seed: 314,
		})
		if err != nil {
			b.Fatal(err)
		}
		return ds
	}
	grow := func(dst *Tree, pts [][]float64) {
		for i := 0; i < len(pts); i += 1000 {
			if err := dst.InsertBatch(pts[i:min(i+1000, len(pts))]); err != nil {
				b.Fatal(err)
			}
		}
	}
	ds := gen(100000)
	pts := ds.Points
	built, err := Build(ds, H, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	aging, active, firstTouch := New(d, H), New(d, H), New(d, H)
	grow(aging, pts[:len(pts)/2])
	grow(active, pts[len(pts)/2:])
	grow(firstTouch, pts)
	window := aging.Clone()
	if err := window.MergeFrom(active); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		tr   *Tree
	}{{"build", built}, {"window", window}, {"insertbatch", firstTouch}} {
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
		pts := gen(window + window/2).Points
		grown, active := New(d, H), New(d, H)
		grow(grown, pts[:window])
		grow(active, pts[window:])
		aging, err := Canonicalize(grown)
		if err != nil {
			b.Fatal(err)
		}
		var idxs []*LevelIndex
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if idxs, err = UnionLevelIndexes(aging, active); err != nil {
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
