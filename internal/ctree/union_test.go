package ctree

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkUnionIndex requires the index over srcs (UnionLevelIndexes) to
// match, level by level and entry for entry, the index of Build over
// the sources' points (want, an empty tree when they hold none): the
// same paths, counts, half-space counts and face sums. Each entry's Ref
// in a source must be that source's cell at the entry's path, or NilRef
// where the source lacks it.
func checkUnionIndex(t *testing.T, name string, want *Tree, srcs ...*Tree) {
	t.Helper()
	wantIdx := want.EnsureLevelIndexes()
	got, err := UnionLevelIndexes(srcs...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	d, H := srcs[0].D, srcs[0].H
	for h := 1; h <= H-1; h++ {
		g, w := got[h-1], wantIdx[h-1]
		if g.Level != h || g.Len() != w.Len() {
			t.Fatalf("%s: level %d holds %d entries, Build's %d", name, h, g.Len(), w.Len())
		}
		for i := 0; i < g.Len(); i++ {
			p := g.PathInto(nil, i)
			if p.Compare(w.PathInto(nil, i)) != 0 || g.N(i) != w.N(i) || g.FaceSum(i) != w.FaceSum(i) {
				t.Fatalf("%s: level %d entry %d: (path %v, N %d, face sum %d), Build's (%v, %d, %d)",
					name, h, i, p, g.N(i), g.FaceSum(i), w.PathInto(nil, i), w.N(i), w.FaceSum(i))
			}
			for j := 0; j < d; j++ {
				if g.P(i, j) != w.P(i, j) {
					t.Fatalf("%s: level %d entry %d axis %d: P %d, Build's %d", name, h, i, j, g.P(i, j), w.P(i, j))
				}
			}
			for s, src := range srcs {
				if r := g.refs[s][i]; r != src.CellAt(p) {
					t.Fatalf("%s: level %d entry %d: source %d Ref %d, CellAt %d", name, h, i, s, r, src.CellAt(p))
				}
			}
		}
	}
}

// buildOf is Build over the given points, or an empty tree when they
// hold none.
func buildOf(t *testing.T, d, H int, parts ...[][]float64) *Tree {
	t.Helper()
	for _, pts := range parts {
		if len(pts) > 0 {
			return sweepBuild(t, d, H, parts...)
		}
	}
	return New(d, H)
}

// TestUnionIndexMatchesMerge is the differential suite of the index
// over several trees: on the merge sweep's seeded rotated,
// duplicate-heavy and flat-axis inputs at d ∈ {1, 15, 63} and
// H ∈ {4, MaxLevels}, the index over two trees must match the index of
// Build over their points entry for entry, for a first-touch tree with
// a canonical one both ways, two first-touch trees, an empty side, a
// tree with itself and two single-point trees.
func TestUnionIndexMatchesMerge(t *testing.T) {
	for _, d := range []int{1, 15, 63} {
		for _, H := range []int{4, MaxLevels} {
			n := 160
			if H == MaxLevels || d == 63 {
				n = 48
			}
			for shape, pts := range sweepShapes(d, n, int64(d*1000+H)) {
				t.Run(fmt.Sprintf("d%d_H%d_%s", d, H, shape), func(t *testing.T) {
					a, b := pts[:n/2], pts[n/2:]
					ftA, ftB := firstTouch(t, d, H, a), firstTouch(t, d, H, b)
					for _, c := range []struct {
						name   string
						a, b   *Tree
						pa, pb [][]float64
					}{
						{"first-touch+canonical", ftA, sweepBuild(t, d, H, b), a, b},
						{"canonical+first-touch", sweepBuild(t, d, H, a), ftB, a, b},
						{"first-touch+first-touch", ftA, ftB, a, b},
						{"empty+first-touch", New(d, H), ftB, nil, b},
						{"first-touch+empty", ftA, New(d, H), a, nil},
						{"empty+empty", New(d, H), New(d, H), nil, nil},
						{"self", ftA, ftA, a, a},
						{"single-points", sweepBuild(t, d, H, a[:1]), firstTouch(t, d, H, b[:1]), a[:1], b[:1]},
					} {
						checkUnionIndex(t, c.name, buildOf(t, d, H, c.pa, c.pb), c.a, c.b)
					}
				})
			}
		}
	}
}

// TestUnionIndexKWayMatchesMerge runs the same differential check over
// k = 3 and k = 8 sources, the k-way case of the fill's merge: each
// sweep input is dealt at random to k-1 sources, built alternately by
// Build (path order) and by InsertBatch (first-touch order), and an
// empty source joins them at a random position.
func TestUnionIndexKWayMatchesMerge(t *testing.T) {
	for _, d := range []int{1, 15, 63} {
		for _, H := range []int{4, MaxLevels} {
			n := 160
			if H == MaxLevels || d == 63 {
				n = 48
			}
			for shape, pts := range sweepShapes(d, n, int64(d*1000+H)) {
				for _, k := range []int{3, 8} {
					t.Run(fmt.Sprintf("d%d_H%d_%s_k%d", d, H, shape, k), func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(d*100 + H*10 + k)))
						parts := make([][][]float64, k-1)
						for _, p := range pts {
							s := rng.Intn(k - 1)
							parts[s] = append(parts[s], p)
						}
						var srcs []*Tree
						for s, part := range parts {
							if s%2 == 0 {
								srcs = append(srcs, sweepBuild(t, d, H, part))
							} else {
								srcs = append(srcs, firstTouch(t, d, H, part))
							}
						}
						at := rng.Intn(k)
						srcs = append(srcs[:at], append([]*Tree{New(d, H)}, srcs[at:]...)...)
						checkUnionIndex(t, fmt.Sprintf("k=%d, empty source %d", k, at), buildOf(t, d, H, parts...), srcs...)
					})
				}
			}
		}
	}
}
