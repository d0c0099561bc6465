// Level indexes: flat, immutable snapshots of the Counting-tree's
// levels for the β-search. Each entry carries its cell's root path,
// per-axis grid coordinates and arena Ref, plus one link per axis to
// the entry of its upper face neighbor, so the face-mask convolution
// reads its O(d) neighbors from an array instead of resolving each one
// by a root-to-leaf descent (Tree.CellAt, O(h) child lookups per probe).
//
// One pass over the arena builds the indexes for every stored level at
// once (Tree.EnsureLevelIndexes); the snapshots stay valid for as long
// as the tree's cell set does not change — Insert and MergeFrom
// invalidate them. Mutating the tree concurrently with index access is
// not supported (the pipeline never does: indexes are built before the
// scan workers fan out, and scan workers only read).
package ctree

import (
	"unsafe"
)

// LevelIndex is the flat snapshot of one tree level: one slab of
// entries in the level's deterministic first-touch walk order, with the
// full root path, packed per-axis grid coordinates, the upper face
// neighbor links and the arena Ref of every entry. Entries resolve
// counters (N, Used) through the owning tree's arena columns, so an
// index adds no copy of the counts.
type LevelIndex struct {
	// Level is the tree level the index covers (1 <= Level <= H-1).
	Level int

	t    *Tree
	d    int
	n    int
	side float64 // cell side length at the level (SideLen(Level))

	// Slabs, entry i occupying [i*width, (i+1)*width):
	paths  []uint64 // width Level: the cell's root path words
	coords []uint64 // width d: grid coordinate per axis at this level
	up     []int32  // width d: entry index of the upper face neighbor per axis, -1 when absent
	refs   []Ref    // the stored cell's arena Ref
}

// Len returns the number of stored cells at the level.
func (ix *LevelIndex) Len() int { return ix.n }

// Dims returns the dataset dimensionality.
func (ix *LevelIndex) Dims() int { return ix.d }

// Ref returns entry i's arena Ref in the owning tree.
func (ix *LevelIndex) Ref(i int) Ref { return ix.refs[i] }

// N returns entry i's point count, read through the owning tree's
// arena.
func (ix *LevelIndex) N(i int) int32 { return ix.t.n[ix.refs[i]] }

// Used reports entry i's usedCell flag, read through the owning tree's
// arena (so SetUsed during the scan is visible without a rebuild).
func (ix *LevelIndex) Used(i int) bool { return ix.t.used[ix.refs[i]] }

// PathOf returns entry i's root path as a view into the index's slab.
// The view is immutable and stable for the lifetime of the index;
// callers must not modify it.
func (ix *LevelIndex) PathOf(i int) Path {
	h := ix.Level
	return Path(ix.paths[i*h : (i+1)*h : (i+1)*h])
}

// Bounds returns entry i's bounds along axis j, identical to
// PathOf(i).Bounds(j) bit for bit (the same float64(coord)·side
// products) but O(1).
func (ix *LevelIndex) Bounds(i, j int) (lo, hi float64) {
	c := float64(ix.coords[i*ix.d+j])
	return c * ix.side, (c + 1) * ix.side
}

// Upper returns the entry index of entry i's upper face neighbor along
// axis j — the stored cell at PathOf(i).Neighbor(j, true) — or -1 when
// that neighbor falls outside the unit cube or is not stored.
func (ix *LevelIndex) Upper(i, j int) int { return int(ix.up[i*ix.d+j]) }

// ComparePaths orders entries a and b by their lexicographic path
// order (the convolution scan's deterministic tie-break) without
// materializing Path values.
func (ix *LevelIndex) ComparePaths(a, b int) int {
	h := ix.Level
	pa := ix.paths[a*h : (a+1)*h]
	pb := ix.paths[b*h : (b+1)*h]
	for k := 0; k < h; k++ {
		switch {
		case pa[k] < pb[k]:
			return -1
		case pa[k] > pb[k]:
			return 1
		}
	}
	return 0
}

// MemoryBytes is the exact footprint of the index: its slabs and ref
// slice.
func (ix *LevelIndex) MemoryBytes() uint64 {
	var total uint64
	total += uint64(unsafe.Sizeof(*ix))
	total += uint64(cap(ix.paths)) * 8
	total += uint64(cap(ix.coords)) * 8
	total += uint64(cap(ix.up)) * 4
	total += uint64(cap(ix.refs)) * uint64(unsafe.Sizeof(NilRef))
	return total
}

// linkUpper fills the upper face neighbor links of every entry from
// those of the level above (above is nil at level 1), by the
// hierarchical neighbor rule of quadtrees: along axis j, a cell whose
// loc bit j is clear sits in the lower half of its parent, so its upper
// neighbor is the sibling at loc|1<<j; a cell whose bit j is set sits
// in the upper half, so its upper neighbor is the child at loc&^1<<j of
// the parent's upper neighbor — absent when that one is absent, and
// always absent at level 1, where the parent is the whole cube. Each
// link costs at most one child lookup (findChild) instead of a
// root-to-leaf descent. entry maps every stored Ref to its index within
// its level.
func (ix *LevelIndex) linkUpper(above *LevelIndex, entry []int32) {
	t, d := ix.t, ix.d
	ix.up = make([]int32, ix.n*d)
	for i, r := range ix.refs {
		loc, par := t.loc[r], t.parent[r]
		var parUp []int32
		if above != nil {
			pi := int(entry[par])
			parUp = above.up[pi*d : (pi+1)*d]
		}
		row := ix.up[i*d : (i+1)*d]
		for j := range row {
			bit := uint64(1) << uint(j)
			nb := NilRef
			if loc&bit == 0 {
				nb = t.findChild(par, loc|bit)
			} else if parUp != nil && parUp[j] >= 0 {
				nb = t.findChild(above.refs[parUp[j]], loc&^bit)
			}
			row[j] = -1
			if nb >= 0 {
				row[j] = entry[nb]
			}
		}
	}
}

// EnsureLevelIndexes materializes the level indexes for every stored
// level (1..H-1) in one pass over the arena and returns them
// (indexes[h-1] is level h). The call is idempotent and cheap after
// the first build; Insert and MergeFrom invalidate the cache.
// Concurrent calls are safe; calling concurrently with tree mutation
// is not.
func (t *Tree) EnsureLevelIndexes() []*LevelIndex {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.indexes != nil {
		return t.indexes
	}
	counts := t.levelCellCountsWalk()
	d := t.D
	idxs := make([]*LevelIndex, t.H-1)
	for h := 1; h <= t.H-1; h++ {
		n := counts[h]
		idxs[h-1] = &LevelIndex{
			Level:  h,
			t:      t,
			d:      d,
			n:      n,
			side:   SideLen(h),
			paths:  make([]uint64, 0, n*h),
			coords: make([]uint64, 0, n*d),
			refs:   make([]Ref, 0, n),
		}
	}
	// One iterative DFS over the arena linkage fills every level in
	// first-touch walk order: path words and per-axis grid coordinates
	// are carried down the descent (coords frame l lives at
	// coordScratch[l*d:(l+1)*d]), so each entry costs O(d) on top of
	// the walk itself. entry records each cell's index within its level
	// for the neighbor links below; it is dropped once they are built.
	entry := make([]int32, len(t.loc))
	pathScratch := make([]uint64, t.H-1)
	coordScratch := make([]uint64, t.H*d)
	stack := make([]Ref, t.H-1)
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
		h := depth + 1 // level of the cell at r
		loc := t.loc[r]
		pathScratch[depth] = loc
		prev := coordScratch[depth*d : (depth+1)*d]
		cur := coordScratch[h*d : (h+1)*d]
		for j := 0; j < d; j++ {
			cur[j] = prev[j] << 1
			if loc&(1<<uint(j)) != 0 {
				cur[j] |= 1
			}
		}
		ix := idxs[h-1]
		entry[r] = int32(len(ix.refs))
		ix.paths = append(ix.paths, pathScratch[:h]...)
		ix.coords = append(ix.coords, cur...)
		ix.refs = append(ix.refs, r)
		if h < t.H-1 && t.firstChild[r] >= 0 {
			depth++
			stack[depth] = t.firstChild[r]
			continue
		}
		stack[depth] = t.nextSib[r]
	}
	// Links run top-down: level h's rule reads level h-1's links.
	var above *LevelIndex
	for _, ix := range idxs {
		ix.linkUpper(above, entry)
		above = ix
	}
	t.indexes = idxs
	return idxs
}

// LevelIndex returns the flat index of level h (building all level
// indexes on first use), or nil when h is outside the stored levels.
func (t *Tree) LevelIndex(h int) *LevelIndex {
	if h < 1 || h > t.H-1 {
		return nil
	}
	return t.EnsureLevelIndexes()[h-1]
}

// invalidateIndexes drops the materialized level indexes after a
// mutation of the tree's cell set. Mutation never races index access
// (see the package comment above), so a plain check suffices and the
// per-insert cost is one nil comparison.
func (t *Tree) invalidateIndexes() {
	if t.indexes != nil {
		t.indexes = nil
	}
}

// LevelCellCounts returns the number of stored cells per level:
// counts[h] is level h's cell count (index 0 unused, length H). With
// the arena layout this is one O(cells) pass over the level column —
// no tree walk at all.
func (t *Tree) LevelCellCounts() []int {
	t.idxMu.Lock()
	if t.indexes != nil {
		counts := make([]int, t.H)
		for _, ix := range t.indexes {
			counts[ix.Level] = ix.n
		}
		t.idxMu.Unlock()
		return counts
	}
	t.idxMu.Unlock()
	return t.levelCellCountsWalk()
}

// levelCellCountsWalk counts every level's stored cells in one linear
// pass over the arena's level column.
func (t *Tree) levelCellCountsWalk() []int {
	counts := make([]int, t.H)
	for i := 1; i < len(t.level); i++ {
		counts[t.level[i]]++
	}
	return counts
}

// IndexMemoryBytes returns the footprint of the materialized level
// indexes, or 0 when none are built. It is disjoint from the tree's
// own MemoryBytes, so the pipeline's authoritative memory check sums
// the two without double counting.
func (t *Tree) IndexMemoryBytes() uint64 {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	var total uint64
	for _, ix := range t.indexes {
		total += ix.MemoryBytes()
	}
	return total
}
