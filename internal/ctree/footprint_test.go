package ctree_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/treeio"
)

// TestWrittenOnceFootprint pins the sizing rule across every producer
// of a written-once tree: Build at Workers 1, 2 and 8 and spilled,
// Union, Canonicalize of a tree grown by InsertBatch, MergeFrom into a
// built and into a grown tree, treeio's validated and trusted loads of
// a built and of a grown tree's snapshot, and Clone of a built and of a
// grown tree. Each returns a tree holding exactly its cells plus the
// root sentinel — every state column exactly sized, no child links or
// tables — whose MemoryBytes is that footprint, for both key layouts.
// One InsertBatch of the remaining points into each, which links the
// tree on the ingest path, must then give Build's tree of all the
// points: Equal, and the same columns row for row once canonicalized.
func TestWrittenOnceFootprint(t *testing.T) {
	for _, s := range []struct{ d, H int }{
		{5, 4},  // packed keys
		{15, 6}, // 15·5 = 75 > 64: multi-word keys
	} {
		t.Run(fmt.Sprintf("d%d_H%d", s.d, s.H), func(t *testing.T) {
			all := footprintPoints(s.d, 3000, int64(s.d))
			a, b, c := all[:1500], all[1500:2200], all[2200:]
			whole := buildPoints(t, all, s.H, ctree.BuildOptions{})
			built := func() *ctree.Tree { return buildPoints(t, a, s.H, ctree.BuildOptions{}) }
			grown := func() *ctree.Tree {
				g := ctree.New(s.d, s.H)
				for lo := 0; lo < len(a); lo += 400 {
					if err := g.InsertBatch(a[lo:min(lo+400, len(a))]); err != nil {
						t.Fatal(err)
					}
				}
				if !ctree.Linked(g) {
					t.Fatal("InsertBatch left the tree without child links")
				}
				return g
			}
			type producer struct {
				name string
				make func() *ctree.Tree
				rest [][]float64
			}
			var producers []producer
			for _, w := range []int{1, 2, 8} {
				producers = append(producers, producer{fmt.Sprintf("build/workers=%d", w), func() *ctree.Tree {
					return buildPoints(t, a, s.H, ctree.BuildOptions{Workers: w})
				}, all[1500:]})
			}
			producers = append(producers,
				producer{"build/spilled", func() *ctree.Tree {
					return buildPoints(t, a, s.H, ctree.BuildOptions{SpillDir: t.TempDir()})
				}, all[1500:]},
				producer{"union", func() *ctree.Tree {
					u, err := ctree.Union(built(), buildPoints(t, b, s.H, ctree.BuildOptions{}))
					if err != nil {
						t.Fatal(err)
					}
					return u
				}, c},
				producer{"canonicalize/grown", func() *ctree.Tree {
					g := grown()
					canon, err := ctree.Canonicalize(g)
					if err != nil {
						t.Fatal(err)
					}
					if canon == g {
						t.Fatal("the grown tree is canonical already: Canonicalize wrote nothing")
					}
					return canon
				}, all[1500:]},
				producer{"mergefrom/built", func() *ctree.Tree {
					m := built()
					if err := m.MergeFrom(buildPoints(t, b, s.H, ctree.BuildOptions{})); err != nil {
						t.Fatal(err)
					}
					return m
				}, c},
				producer{"mergefrom/grown", func() *ctree.Tree {
					m := grown()
					if err := m.MergeFrom(buildPoints(t, b, s.H, ctree.BuildOptions{})); err != nil {
						t.Fatal(err)
					}
					return m
				}, c},
				producer{"clone/built", func() *ctree.Tree { return built().Clone() }, all[1500:]},
				producer{"clone/grown", func() *ctree.Tree { return grown().Clone() }, all[1500:]},
			)
			for _, src := range []struct {
				name string
				make func() *ctree.Tree
			}{{"built", built}, {"grown", grown}} {
				for _, trusted := range []bool{false, true} {
					producers = append(producers, producer{fmt.Sprintf("load/%s/trusted=%v", src.name, trusted), func() *ctree.Tree {
						var buf bytes.Buffer
						if _, err := treeio.Save(&buf, src.make(), treeio.Meta{}); err != nil {
							t.Fatal(err)
						}
						l, _, err := treeio.Load(bytes.NewReader(buf.Bytes()), int64(buf.Len()), treeio.LoadOptions{TrustChecksums: trusted})
						if err != nil {
							t.Fatal(err)
						}
						return l
					}, all[1500:]})
				}
			}
			for _, p := range producers {
				tr := p.make()
				rows := int(tr.CellCount()) + 1
				cols := tr.Columns()
				exact := cap(cols.Loc) == rows && cap(cols.N) == rows && cap(cols.Used) == rows &&
					cap(cols.Level) == rows && cap(cols.Parent) == rows && cap(cols.P) == rows*s.d && ctree.ChildCountExact(tr)
				if !exact || ctree.Linked(tr) {
					t.Fatalf("%s: columns exactly sized=%v, child links=%v; want a written-once tree", p.name, exact, ctree.Linked(tr))
				}
				if got, want := tr.MemoryBytes(), ctree.WrittenOnceBytes(s.d, rows); got != want {
					t.Fatalf("%s: MemoryBytes %d, want the written-once footprint of %d rows, %d", p.name, got, rows, want)
				}
				if err := tr.InsertBatch(p.rest); err != nil {
					t.Fatalf("%s: InsertBatch: %v", p.name, err)
				}
				if !ctree.Linked(tr) || !ctree.Equal(tr, whole) || tr.Eta != whole.Eta {
					t.Fatalf("%s: one InsertBatch of the rest diverged from Build of all the points", p.name)
				}
				canon, err := ctree.Canonicalize(tr)
				if err != nil {
					t.Fatal(err)
				}
				if !sameColumnsRows(canon.Columns(), whole.Columns()) {
					t.Fatalf("%s: canonicalized after InsertBatch, the columns differ from Build's", p.name)
				}
			}
		})
	}
}

// footprintPoints returns n points of d dimensions: a third repeat one
// of 40 points, so cells are shared across the producers' parts, and
// the rest are spread by a fixed linear congruential walk.
func footprintPoints(d, n int, seed int64) [][]float64 {
	x := uint64(seed)*2862933555777941757 + 3037000493
	next := func() float64 {
		x = x*6364136223846793005 + 1442695040888963407
		return float64(x>>11) / (1 << 53)
	}
	pts := make([][]float64, n)
	for i := range pts {
		if i%3 == 0 && i >= 120 {
			pts[i] = pts[(i/3)%40*3]
			continue
		}
		p := make([]float64, d)
		for j := range p {
			p[j] = next()
		}
		pts[i] = p
	}
	return pts
}

// buildPoints is Build over pts.
func buildPoints(t *testing.T, pts [][]float64, H int, opt ctree.BuildOptions) *ctree.Tree {
	t.Helper()
	tr, err := ctree.Build(&dataset.Dataset{Dims: len(pts[0]), Points: pts}, H, opt)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// sameColumnsRows reports whether two trees' state columns are equal,
// row for row.
func sameColumnsRows(a, b ctree.Columns) bool {
	return slices.Equal(a.Loc, b.Loc) && slices.Equal(a.N, b.N) && slices.Equal(a.Used, b.Used) &&
		slices.Equal(a.Level, b.Level) && slices.Equal(a.Parent, b.Parent) && slices.Equal(a.P, b.P)
}
