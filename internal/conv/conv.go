// Package conv applies spatial convolution masks over one level of a
// Counting-tree (Section III-B of the paper). The default mask is the
// integer approximation of the Laplacian filter with non-zero values
// only at the center (2d) and the 2d face elements (-1 each), which
// makes one application O(d) instead of O(3^d). The full order-3 mask
// (center 3^d-1, every other element -1) is also provided for the
// ablation study that justifies the face-only choice.
package conv

import "mrcc/internal/ctree"

// FaceValue returns the face-only Laplacian convolution value for the
// cell r addressed by path p: 2d·n(c) − Σ_j [n(lower_j) + n(upper_j)],
// where absent neighbors contribute zero.
func FaceValue(t *ctree.Tree, p ctree.Path, r ctree.Ref) int64 {
	return FaceValueScratch(t, p, r, make(ctree.Path, 0, p.Level()))
}

// FaceValueScratch is FaceValue with caller-owned path scratch (grown
// as needed), so the convolution scan — which applies the mask once per
// eligible cell per pass — allocates nothing per evaluation. buf must
// not alias p; each scan worker owns its own scratch.
func FaceValueScratch(t *ctree.Tree, p ctree.Path, r ctree.Ref, buf ctree.Path) int64 {
	d := t.D
	v := int64(2*d) * int64(t.N(r))
	for j := 0; j < d; j++ {
		for _, upper := range [2]bool{false, true} {
			np, ok := p.NeighborInto(buf, j, upper)
			if ok {
				if nc := t.CellAt(np); nc != ctree.NilRef {
					v -= int64(t.N(nc))
				}
			}
			buf = np[:0]
		}
	}
	return v
}

// FaceNeighborCounts returns, for each axis j, the point counts of the
// lower and upper face neighbors of the cell at path p (zero when the
// neighbor is absent or outside the cube), each resolved by a CellAt
// descent. The clustering phase calls it twice per tested β-cluster
// candidate (for the statistical test and for bound refinement), so it
// is off the per-cell hot path the level index's face sums serve.
func FaceNeighborCounts(t *ctree.Tree, p ctree.Path) (lower, upper []int32) {
	d := t.D
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
			if nc := t.CellAt(np); nc != ctree.NilRef {
				n = t.N(nc)
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

// FullValue returns the full order-3 Laplacian convolution value:
// (3^d−1)·n(c) − Σ over all 3^d−1 offset neighbors. Cost is O(3^d·h);
// it exists only for the mask ablation (experiment A-mask) on small d.
// The neighbors are visited by moving one scratch path axis by axis —
// set on the way down the recursion, restored on the way back up — so
// an evaluation allocates nothing.
func FullValue(t *ctree.Tree, p ctree.Path, r ctree.Ref) int64 {
	total := int64(1)
	for i := 0; i < t.D; i++ {
		total *= 3
	}
	var scratch [ctree.MaxLevels]uint64
	w := fullWalk{t: t, p: p, q: append(scratch[:0], p...), top: uint64(1)<<uint(p.Level()) - 1}
	w.visit(0, false)
	return (total-1)*int64(t.N(r)) - w.sum
}

// fullWalk is FullValue's recursion state: q is the center path p with
// axes [0, axis) displaced by the current offsets.
type fullWalk struct {
	t    *ctree.Tree
	p, q ctree.Path
	top  uint64 // largest grid coordinate at the level
	sum  int64  // Σ n over the stored offset neighbors visited so far
}

// visit enumerates the offsets {0, −1, +1} of axes [axis, d); moved
// reports whether an earlier axis is displaced (the all-zero offset is
// the center cell, not a neighbor).
func (w *fullWalk) visit(axis int, moved bool) {
	if axis == w.t.D {
		if moved {
			if nc := w.t.CellAt(w.q); nc != ctree.NilRef {
				w.sum += int64(w.t.N(nc))
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
