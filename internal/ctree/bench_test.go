package ctree

import (
	"fmt"
	"testing"

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
// that find face neighbors and add up each entry's face sum — over the
// same 100k points (d = 15, H = 4, the stream-grow shape) in both child
// orders the pipeline indexes, and reports the finished indexes'
// footprint (IndexMemoryBytes) as index-MB. "build" is the canonical
// Build tree of the batch path; "window" is the streaming service's
// window tree, two InsertBatch-grown halves merged by MergeFrom, which
// writes the same canonical order; in both, sibling chains already
// ascend by loc, so no child run gets sorted. "insertbatch" is the
// points grown by InsertBatch alone, whose first-touch sibling chains
// get sorted run by run.
//
//	go test -run '^$' -bench BenchmarkEnsureLevelIndexes ./internal/ctree
func BenchmarkEnsureLevelIndexes(b *testing.B) {
	const d, H = 15, 4
	ds, _, err := synthetic.Generate(synthetic.Config{
		Dims: d, Points: 100000, Clusters: 10, NoiseFrac: 0.15,
		MinClusterDim: 8, MaxClusterDim: 13, Seed: 314,
	})
	if err != nil {
		b.Fatal(err)
	}
	built, err := Build(ds, H, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	aging, active, firstTouch := New(d, H), New(d, H), New(d, H)
	for i := 0; i < ds.Len(); i += 1000 {
		dst := aging
		if i >= ds.Len()/2 {
			dst = active
		}
		pts := ds.Points[i:min(i+1000, ds.Len())]
		if err := dst.InsertBatch(pts); err != nil {
			b.Fatal(err)
		}
		if err := firstTouch.InsertBatch(pts); err != nil {
			b.Fatal(err)
		}
	}
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
