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

func BenchmarkNeighborLookup(b *testing.B) {
	ds := uniformDataset(b, 10, 5000, 1)
	tr, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var paths []Path
	tr.WalkLevel(2, func(p Path, _ Ref) { paths = append(paths, p.Clone()) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := paths[i%len(paths)]
		for j := 0; j < tr.D; j++ {
			if np, ok := p.Neighbor(j, true); ok {
				tr.CellAt(np)
			}
		}
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
