// Package conv applies spatial convolution masks over one level of a
// Counting-tree, or of the union of several, through the level's index
// (Section III-B of the paper). The default mask is the integer
// approximation of the Laplacian filter with non-zero values only at
// the center (2d) and the 2d face elements (-1 each), which makes one
// application O(d) lookups instead of O(3^d). The full order-3 mask
// (center 3^d-1, every other element -1) is also provided for the
// ablation study that justifies the face-only choice. Every neighbor is
// resolved by a path lookup in the index (ctree.LevelIndex.Find), so
// the counts are the union's whatever trees the index covers.
package conv

import "mrcc/internal/ctree"

// FaceValueScratch returns the face-only Laplacian convolution value
// for entry i of the level index ix, whose path is p:
// 2d·n(c) − Σ_j [n(lower_j) + n(upper_j)], where absent neighbors
// contribute zero. It finds each neighbor by a path lookup, writing the
// neighbor paths into buf (grown as needed; nil is fine), so the naive
// convolution scan — which applies the mask once per eligible cell per
// pass — allocates nothing per evaluation. buf must not alias p; each
// scan worker owns its own scratch. The β-search reads the same values
// from the level index's face sums (ctree.LevelIndex.FaceSum); this
// lookup form is the oracle conv's and core's suites pin them against.
func FaceValueScratch(ix *ctree.LevelIndex, p ctree.Path, i int, buf ctree.Path) int64 {
	d := ix.D
	v := int64(2*d) * int64(ix.N(i))
	for j := 0; j < d; j++ {
		for _, upper := range [2]bool{false, true} {
			np, ok := p.NeighborInto(buf, j, upper)
			if ok {
				if k := ix.Find(np); k >= 0 {
					v -= int64(ix.N(k))
				}
			}
			buf = np[:0]
		}
	}
	return v
}

// FaceNeighborCounts returns, for each axis j, the point counts of the
// lower and upper face neighbors of the cell at path p, a path of ix's
// level (zero when the neighbor is absent or outside the cube), each
// found by a path lookup in ix. The clustering phase calls it twice per
// tested β-cluster candidate (for the statistical test and for bound
// refinement), so it is off the per-cell hot path the level index's
// face sums serve.
func FaceNeighborCounts(ix *ctree.LevelIndex, p ctree.Path) (lower, upper []int32) {
	d := ix.D
	lower = make([]int32, d)
	upper = make([]int32, d)
	buf := make(ctree.Path, 0, p.Level())
	for j := 0; j < d; j++ {
		for _, up := range [2]bool{false, true} {
			np, ok := p.NeighborInto(buf, j, up)
			if !ok {
				continue
			}
			buf = np
			var n int32
			if k := ix.Find(np); k >= 0 {
				n = ix.N(k)
			}
			if up {
				upper[j] = n
			} else {
				lower[j] = n
			}
		}
	}
	return lower, upper
}

// FullValue returns the full order-3 Laplacian convolution value of
// entry i of ix, whose path is p: (3^d−1)·n(c) − Σ over all 3^d−1
// offset neighbors. Cost is O(3^d) path lookups; it exists only for the
// mask ablation (experiment A-mask) on small d. The neighbors are
// visited by moving one scratch path axis by axis — set on the way down
// the recursion, restored on the way back up — so an evaluation
// allocates nothing.
func FullValue(ix *ctree.LevelIndex, p ctree.Path, i int) int64 {
	total := int64(1)
	for j := 0; j < ix.D; j++ {
		total *= 3
	}
	var scratch [ctree.MaxLevels]uint64
	w := fullWalk{ix: ix, p: p, q: append(scratch[:0], p...), top: uint64(1)<<uint(p.Level()) - 1}
	w.visit(0, false)
	return (total-1)*int64(ix.N(i)) - w.sum
}

// fullWalk is FullValue's recursion state: q is the center path p with
// axes [0, axis) displaced by the current offsets.
type fullWalk struct {
	ix   *ctree.LevelIndex
	p, q ctree.Path
	top  uint64 // largest grid coordinate at the level
	sum  int64  // Σ n over the stored offset neighbors visited so far
}

// visit enumerates the offsets {0, −1, +1} of axes [axis, d); moved
// reports whether an earlier axis is displaced (the all-zero offset is
// the center cell, not a neighbor).
func (w *fullWalk) visit(axis int, moved bool) {
	if axis == w.ix.D {
		if moved {
			if k := w.ix.Find(w.q); k >= 0 {
				w.sum += int64(w.ix.N(k))
			}
		}
		return
	}
	w.visit(axis+1, moved)
	c := w.p.Coord(axis)
	if c > 0 {
		setCoord(w.q, axis, c-1)
		w.visit(axis+1, true)
	}
	if c < w.top {
		setCoord(w.q, axis, c+1)
		w.visit(axis+1, true)
	}
	setCoord(w.q, axis, c)
}

// setCoord rewrites axis j's bit in every word of q so that the path
// addresses grid coordinate c along j.
func setCoord(q ctree.Path, j int, c uint64) {
	h := len(q)
	mask := uint64(1) << uint(j)
	for l := range q {
		if (c>>uint(h-1-l))&1 == 1 {
			q[l] |= mask
		} else {
			q[l] &^= mask
		}
	}
}
