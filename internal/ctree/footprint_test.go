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
// of a tree: Build at Workers 1, 2 and 8 and spilled, Union, InsertBatch
// into an empty and into a populated tree, the streaming service's runs
// and the Union of them, MergeFrom into a built tree and into one fed
// by InsertBatch, treeio's validated and trusted loads of a built tree,
// of a tree fed by InsertBatch and of a first-touch arena (the per-point
// Insert oracle's, the order of a snapshot an older release saved), and
// Clone of a built tree and of one fed by InsertBatch. Each returns a
// tree holding exactly its cells plus the root sentinel — every state
// column exactly sized — whose MemoryBytes is that footprint, for both
// key layouts. One InsertBatch of the remaining points into each must
// then leave a tree of the same footprint that is Build's tree of all
// the points, column for column.
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
			fed := func() *ctree.Tree {
				g := ctree.New(s.d, s.H)
				for lo := 0; lo < len(a); lo += 400 {
					if err := g.InsertBatch(a[lo:min(lo+400, len(a))]); err != nil {
						t.Fatal(err)
					}
				}
				return g
			}
			firstTouch := func() *ctree.Tree {
				g := ctree.New(s.d, s.H)
				for _, p := range a {
					if err := g.Insert(p); err != nil {
						t.Fatal(err)
					}
				}
				if ctree.Canonical(g) {
					t.Fatal("the per-point oracle wrote a canonical arena; the first-touch load is vacuous")
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
				producer{"insertbatch", fed, all[1500:]},
				producer{"runs", func() *ctree.Tree {
					runs := ctree.AddBatches(t, a, s.d, s.H, 100)
					if len(runs) < 2 {
						t.Fatalf("%d service runs; the union of runs is vacuous", len(runs))
					}
					for i, r := range runs {
						checkWrittenOnce(t, fmt.Sprintf("runs/%d", i), r)
					}
					u, err := ctree.Union(runs...)
					if err != nil {
						t.Fatal(err)
					}
					return u
				}, all[1500:]},
				producer{"mergefrom/built", func() *ctree.Tree {
					m := built()
					if err := m.MergeFrom(buildPoints(t, b, s.H, ctree.BuildOptions{})); err != nil {
						t.Fatal(err)
					}
					return m
				}, c},
				producer{"mergefrom/insertbatch", func() *ctree.Tree {
					m := fed()
					if err := m.MergeFrom(buildPoints(t, b, s.H, ctree.BuildOptions{})); err != nil {
						t.Fatal(err)
					}
					return m
				}, c},
				producer{"clone/built", func() *ctree.Tree { return built().Clone() }, all[1500:]},
				producer{"clone/insertbatch", func() *ctree.Tree { return fed().Clone() }, all[1500:]},
			)
			for _, src := range []struct {
				name string
				make func() *ctree.Tree
			}{{"built", built}, {"insertbatch", fed}, {"firsttouch", firstTouch}} {
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
				checkWrittenOnce(t, p.name, tr)
				if err := tr.InsertBatch(p.rest); err != nil {
					t.Fatalf("%s: InsertBatch: %v", p.name, err)
				}
				checkWrittenOnce(t, p.name+" + InsertBatch", tr)
				if !ctree.Equal(tr, whole) || tr.Eta != whole.Eta || !sameColumnsRows(tr.Columns(), whole.Columns()) {
					t.Fatalf("%s: one InsertBatch of the rest diverged from Build of all the points", p.name)
				}
			}
		})
	}
}

// checkWrittenOnce fails the test unless tr holds exactly its cells
// plus the root sentinel in every state column and reports that
// footprint as its MemoryBytes, and unless that footprint is the tree's
// header plus exactly the column bytes its snapshot holds.
func checkWrittenOnce(t *testing.T, name string, tr *ctree.Tree) {
	t.Helper()
	rows, d := int(tr.CellCount())+1, tr.D
	cols := tr.Columns()
	if cap(cols.Loc) != rows || cap(cols.N) != rows || cap(cols.Used) != rows || cap(cols.Level) != rows ||
		cap(cols.Parent) != rows || cap(cols.P) != rows*d {
		t.Fatalf("%s: the state columns are not exactly sized to %d rows", name, rows)
	}
	if got, want := tr.MemoryBytes(), ctree.WrittenOnceBytes(d, rows); got != want {
		t.Fatalf("%s: MemoryBytes %d, want the written-once footprint of %d rows, %d", name, got, rows, want)
	}
	if inMem, saved := tr.MemoryBytes()-ctree.WrittenOnceBytes(d, 0), treeio.SnapshotSize(tr)-treeio.HeaderSize; inMem != uint64(saved) {
		t.Fatalf("%s: the columns take %d bytes in memory and %d in a snapshot", name, inMem, saved)
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
