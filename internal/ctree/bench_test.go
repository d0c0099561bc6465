package ctree

import (
	"fmt"
	"testing"
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

// BenchmarkEnsureLevelIndexes times the level-index build — the walk
// that fills the path and coordinate slabs plus the upper-neighbor
// links — over a streaming window tree: two InsertBatch-grown halves
// merged by Clone + MergeFrom, the input every re-cluster pass of the
// service indexes.
func BenchmarkEnsureLevelIndexes(b *testing.B) {
	ds := uniformDataset(b, 10, 20000, 1)
	aging, active := New(10, 5), New(10, 5)
	for i := 0; i < ds.Len(); i += 1000 {
		dst := aging
		if i >= ds.Len()/2 {
			dst = active
		}
		if err := dst.InsertBatch(ds.Points[i : i+1000]); err != nil {
			b.Fatal(err)
		}
	}
	merged := aging.Clone()
	if err := merged.MergeFrom(active); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged.invalidateIndexes()
		merged.EnsureLevelIndexes()
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
