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
	"bytes"
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
// silently wrap the counts. InsertBatch and Union refuse instead;
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

// NeighborInto returns the path of the face neighbor along axis j
// (upper side when upper is true), written into dst (grown as needed)
// so that hot loops — the convolution visits 2d neighbors per cell —
// avoid an allocation per lookup. ok is false when the neighbor would
// fall outside the unit cube. The receiver is not modified, and dst
// must not alias it.
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

// CellAt returns the cell at the given path, or NilRef when the tree
// stores none, without changing the tree. It descends through the
// canonical arena (DFS preorder, siblings ascending by loc), where a
// cell r's subtree is the run of rows from r to its end, its children
// are that run's rows one level down, in ascending loc, the first of
// them right after r, and every later row of that level belongs to a
// later parent. So each step checks r's first child and, when r has
// more, binary-searches the level's rows up to the end of r's subtree
// for the first that is not a child of r below the wanted loc.
func (t *Tree) CellAt(p Path) Ref {
	if len(p) == 0 || len(p) > t.H-1 {
		return NilRef
	}
	r, end := rootRef, len(t.level)
	for l, want := range p {
		lvl := uint8(l + 1)
		c := int(r) + 1
		if c == end || t.parent[c] != r || t.loc[c] > want {
			return NilRef
		}
		if t.loc[c] == want {
			// end bounds c's subtree too: r's other children follow it.
			r = Ref(c)
			continue
		}
		lo, hi, c := c+1, end, end
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			i := bytes.IndexByte(t.level[m:hi], lvl)
			if i < 0 {
				hi = m
				continue
			}
			if s := m + i; t.parent[s] == r && t.loc[s] < want {
				lo = s + 1
			} else {
				c, hi = s, m
			}
		}
		if c == end || t.parent[c] != r || t.loc[c] != want {
			return NilRef
		}
		if i := bytes.IndexByte(t.level[c+1:end], lvl); i >= 0 {
			end = c + 1 + i
		}
		r = Ref(c)
	}
	return r
}

// WalkLevel visits every stored cell at level h in arena order, which
// is path order, in one pass over the arena that keeps the path of the
// latest cell's ancestors. The path passed to fn is reused across
// calls; clone it to retain it.
func (t *Tree) WalkLevel(h int, fn func(p Path, r Ref)) {
	if h < 1 || h > t.H-1 {
		return
	}
	// anc[l] is the level-(l+1) cell whose loc path[l] holds: a cell's
	// path is refreshed only up to the first ancestor already in place.
	path := make(Path, h)
	anc := make([]Ref, h)
	for l := range anc {
		anc[l] = NilRef
	}
	for r, lvl := range t.level {
		if int(lvl) != h {
			continue
		}
		for l, c := h-1, Ref(r); l >= 0 && anc[l] != c; l, c = l-1, t.parent[c] {
			anc[l], path[l] = c, t.loc[c]
		}
		fn(path, Ref(r))
	}
}
