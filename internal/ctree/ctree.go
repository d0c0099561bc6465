// Package ctree implements MrCC's Counting-tree (Section III-A of the
// paper): a quadtree-like structure that represents a normalized dataset
// as a stack of d-dimensional hyper-grids at H resolutions. Level h
// (1 <= h <= H-1) partitions the unit hyper-cube into cells of side
// 1/2^h; each cell stores its point count, per-axis half-space counts,
// the usedCell flag consumed by the clustering phase, and a link to
// its refinement at the next level. Only non-empty cells are stored, so
// a level holds at most η cells even though the full grid has 2^(dh).
//
// Cells live in an arena of structure-of-arrays slabs and are addressed
// by int32 Refs — see arena.go for the layout and build.go for the
// sort-and-merge build that fills it.
package ctree

import (
	"math"
)

// MaxDims bounds the dimensionality so a cell's relative position fits
// in a single uint64 bit per axis.
const MaxDims = 63

// MinLevels is the smallest legal number of resolutions H (the paper
// requires H >= 3 so that level 2, where the β-cluster search starts,
// has a stored parent level).
const MinLevels = 3

// MaxLevels bounds H so that grid coordinates (up to 2^H per axis) stay
// exactly representable in uint64/float64 arithmetic. Cells are already
// singleton far shallower than this for any realistic dataset.
const MaxLevels = 60

// MaxPoints bounds the number of points one Counting-tree can count.
// The cell counts N and the half-space counts P are int32 (a deliberate
// memory trade-off: the tree stores d+1 counters per non-empty cell
// across H-1 levels), so counting more than 2^31-1 points — by
// inserting or by merging shards whose totals sum past it — would
// silently wrap the counts. Insert and Union refuse instead;
// datasets beyond this size must be sharded into separate trees.
const MaxPoints = math.MaxInt32

// SideLen returns ξh = 1/2^h, the cell side length at level h.
func SideLen(h int) float64 { return 1 / float64(uint64(1)<<uint(h)) }

// Path identifies a cell by the sequence of relative positions from
// level 1 down to the cell's level: Path[l-1] is the loc at level l.
type Path []uint64

// Level returns the tree level the path addresses.
func (p Path) Level() int { return len(p) }

// Coord returns the integer grid coordinate of the cell along axis j at
// its own level: a Level()-bit number whose most significant bit comes
// from level 1.
func (p Path) Coord(j int) uint64 {
	var c uint64
	for _, loc := range p {
		c <<= 1
		if loc&(1<<uint(j)) != 0 {
			c |= 1
		}
	}
	return c
}

// Bounds returns the lower and upper bounds of the cell along axis j.
func (p Path) Bounds(j int) (lo, hi float64) {
	h := p.Level()
	side := SideLen(h)
	c := float64(p.Coord(j))
	return c * side, (c + 1) * side
}

// Neighbor returns the path of the face neighbor along axis j (upper
// side when upper is true). ok is false when the neighbor would fall
// outside the unit cube. The receiver is not modified.
func (p Path) Neighbor(j int, upper bool) (Path, bool) {
	return p.NeighborInto(nil, j, upper)
}

// NeighborInto is Neighbor writing into dst (grown as needed), letting
// hot loops — the convolution visits 2d neighbors per cell — avoid an
// allocation per lookup. dst must not alias p.
func (p Path) NeighborInto(dst Path, j int, upper bool) (Path, bool) {
	h := p.Level()
	c := p.Coord(j)
	if upper {
		if c == (uint64(1)<<uint(h))-1 {
			return dst, false
		}
		c++
	} else {
		if c == 0 {
			return dst, false
		}
		c--
	}
	out := append(dst[:0], p...)
	mask := uint64(1) << uint(j)
	for l := 0; l < h; l++ {
		bit := (c >> uint(h-1-l)) & 1
		if bit == 1 {
			out[l] |= mask
		} else {
			out[l] &^= mask
		}
	}
	return out, true
}

// Clone returns a copy of the path.
func (p Path) Clone() Path { return append(Path(nil), p...) }

// Compare orders paths lexicographically; it is the deterministic
// tie-break used by the convolution scan.
func (p Path) Compare(q Path) int {
	n := len(p)
	if len(q) < n {
		n = len(q)
	}
	for i := 0; i < n; i++ {
		switch {
		case p[i] < q[i]:
			return -1
		case p[i] > q[i]:
			return 1
		}
	}
	switch {
	case len(p) < len(q):
		return -1
	case len(p) > len(q):
		return 1
	}
	return 0
}

// CellAt walks the tree along the path and returns the addressed cell,
// or NilRef when any step is absent.
func (t *Tree) CellAt(p Path) Ref {
	r := rootRef
	for _, loc := range p {
		r = t.findChild(r, loc)
		if r < 0 {
			return NilRef
		}
	}
	if r == rootRef {
		return NilRef
	}
	return r
}

// WalkLevel visits every stored cell at level h in deterministic (chain)
// order. The path passed to fn is reused across calls; clone it to
// retain it.
func (t *Tree) WalkLevel(h int, fn func(p Path, r Ref)) {
	if h < 1 || h > t.H-1 {
		return
	}
	// Iterative DFS over the arena linkage: stack[l] is the cell
	// currently visited at depth l (level l+1); NilRef means the child
	// chain at that depth is exhausted.
	path := make(Path, h)
	stack := make([]Ref, h)
	stack[0] = t.firstChild[rootRef]
	depth := 0
	for depth >= 0 {
		r := stack[depth]
		if r < 0 {
			depth--
			if depth >= 0 {
				stack[depth] = t.nextSib[stack[depth]]
			}
			continue
		}
		path[depth] = t.loc[r]
		if depth+1 == h {
			fn(path, r)
			stack[depth] = t.nextSib[r]
			continue
		}
		depth++
		stack[depth] = t.firstChild[r]
	}
}

// LevelCellCount returns the number of stored cells at level h, in one
// O(cells) pass over the arena's level column.
func (t *Tree) LevelCellCount(h int) int {
	if h < 1 || h > t.H-1 {
		return 0
	}
	n := 0
	for i := 1; i < len(t.level); i++ {
		if int(t.level[i]) == h {
			n++
		}
	}
	return n
}
