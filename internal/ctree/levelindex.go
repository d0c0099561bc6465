// Level indexes: flat, immutable snapshots of the Counting-tree's
// levels for the β-search. Each entry carries its cell's root path,
// per-axis grid coordinates and arena Ref, plus one link per axis to
// the entry of its upper face neighbor, so the face-mask convolution
// reads its O(d) neighbors from an array instead of resolving each one
// by a root-to-leaf descent (Tree.CellAt, O(h) child lookups per probe).
//
// Every level lists its cells in lexicographic path order, whatever
// arena order the tree was built in: level h holds, for each level h-1
// entry in turn, that cell's children ascending by loc. Each parent's
// children therefore form one sorted, contiguous run, which makes the
// entry index the path order (the β-search breaks value ties by index)
// and lets the neighbor links come from merge walks over runs instead
// of child lookups.
//
// Tree.EnsureLevelIndexes builds every stored level at once, top down;
// the snapshots stay valid for as long as the tree's cell set does not
// change — Insert and MergeFrom invalidate them. Mutating the tree
// concurrently with index access is not supported (the pipeline never
// does: indexes are built before the scan workers fan out, and scan
// workers only read).
package ctree

import (
	"cmp"
	"math/bits"
	"slices"
	"unsafe"
)

// LevelIndex is the flat snapshot of one tree level: one slab of
// entries in lexicographic path order (entry a precedes entry b exactly
// when PathOf(a).Compare(PathOf(b)) < 0), with the full root path,
// packed per-axis grid coordinates, the upper face neighbor links and
// the arena Ref of every entry. Entries resolve counters (N, Used)
// through the owning tree's arena columns, so an index adds no copy of
// the counts.
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

// levelRuns is the transient by-product of one level's fill that its
// links read: the children of the level above's entry p are entries
// kids[p] to kids[p+1]-1, and locs[i] is entry i's loc (the last word
// of its path), kept contiguous for the merge walks.
type levelRuns struct {
	kids []int32
	locs []uint64
}

// fillLevel lists level h's n cells in path order — for each entry of
// above in turn (the root sentinel at level 1, where above is nil),
// that cell's children ascending by loc — and fills each entry's path,
// grid coordinates and Ref from its parent entry's. Build, a spilled
// build and Canonicalize chain siblings ascending already, so only the
// runs of a tree grown in first-touch order (InsertBatch, MergeFrom)
// get sorted.
func (t *Tree) fillLevel(h, n int, above *LevelIndex) (*LevelIndex, levelRuns) {
	d := t.D
	ix := &LevelIndex{
		Level:  h,
		t:      t,
		d:      d,
		n:      n,
		side:   SideLen(h),
		paths:  make([]uint64, n*h),
		coords: make([]uint64, n*d),
		refs:   make([]Ref, 0, n),
	}
	parRefs := []Ref{rootRef}
	var parPaths []uint64
	parCoords := make([]uint64, d)
	if above != nil {
		parRefs, parPaths, parCoords = above.refs, above.paths, above.coords
	}
	runs := levelRuns{kids: make([]int32, len(parRefs)+1), locs: make([]uint64, n)}
	byLoc := func(a, b Ref) int { return cmp.Compare(t.loc[a], t.loc[b]) }
	for p, par := range parRefs {
		lo := len(ix.refs)
		runs.kids[p] = int32(lo)
		sorted := true
		for c := t.firstChild[par]; c >= 0; c = t.nextSib[c] {
			i := len(ix.refs)
			ix.refs = append(ix.refs, c)
			runs.locs[i] = t.loc[c]
			if i > lo && runs.locs[i] < runs.locs[i-1] {
				sorted = false
			}
		}
		hi := len(ix.refs)
		if !sorted {
			slices.SortFunc(ix.refs[lo:hi], byLoc)
			for i, r := range ix.refs[lo:hi] {
				runs.locs[lo+i] = t.loc[r]
			}
		}
		parPath := parPaths[p*(h-1) : (p+1)*(h-1)]
		parCoord := parCoords[p*d : (p+1)*d]
		for i, loc := range runs.locs[lo:hi] {
			i += lo
			path := ix.paths[i*h : (i+1)*h]
			copy(path, parPath)
			path[h-1] = loc
			coord := ix.coords[i*d : (i+1)*d]
			for j, c := range parCoord {
				coord[j] = c<<1 | loc>>uint(j)&1
			}
		}
	}
	runs.kids[len(parRefs)] = int32(len(ix.refs))
	return ix, runs
}

// linkUpper fills the upper face neighbor links of every entry from
// those of the level above (above is nil at level 1), by the
// hierarchical neighbor rule of quadtrees: along axis j, a cell whose
// loc bit j is clear sits in the lower half of its parent, so its upper
// neighbor is the sibling at loc|1<<j; a cell whose bit j is set sits
// in the upper half, so its upper neighbor is the child at loc&^1<<j of
// the parent's upper neighbor — absent when that one is absent, and
// always absent at level 1, where the parent is the whole cube.
//
// Each run is sorted by loc, and flipping bit j keeps the order of the
// locs that share bit j, so one forward merge walk per run and axis
// finds every link of a kind: cousins against the child run of the
// parent's upper neighbor along each axis that neighbor resolves and
// some child has set, and siblings within the run. Siblings along j
// differ in bit j alone, and the top bit in which two sorted locs
// differ is the top bit in which some two adjacent locs between them
// differ, so siblings are walked only along the axes that top an
// adjacent pair's difference: one axis for a two-cell run.
func (ix *LevelIndex) linkUpper(above *LevelIndex, runs levelRuns) {
	d, kids, locs := ix.d, runs.kids, runs.locs
	ix.up = make([]int32, ix.n*d)
	for i := range ix.up {
		ix.up[i] = -1
	}
	for p := 0; p+1 < len(kids); p++ {
		lo, hi := int(kids[p]), int(kids[p+1])
		or, sib := uint64(0), uint64(0)
		for a := lo; a < hi; a++ {
			or |= locs[a]
			if a > lo {
				// The top bit in which adjacent locs differ (none for a
				// duplicate loc, which a trusted snapshot load does not
				// rule out).
				sib |= uint64(1<<63) >> bits.LeadingZeros64(locs[a-1]^locs[a])
			}
		}
		for m := sib; m != 0; m &= m - 1 {
			mergeLinks(ix.up, locs, lo, hi, lo, hi, d, bits.TrailingZeros64(m), false)
		}
		if above == nil {
			continue
		}
		parUp := above.up[p*d : (p+1)*d]
		for m := or; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			if q := parUp[j]; q >= 0 {
				mergeLinks(ix.up, locs, lo, hi, int(kids[q]), int(kids[q+1]), d, j, true)
			}
		}
	}
}

// mergeLinks links every entry of the sorted run [lo, hi) whose loc bit
// j equals set to the entry of the sorted run [blo, bhi) at its loc
// with bit j flipped, when that entry is stored, writing the links into
// up (width d). The flipped locs ascend with the sources, so the target
// cursor only moves forward.
func mergeLinks(up []int32, locs []uint64, lo, hi, blo, bhi, d, j int, set bool) {
	bit := uint64(1) << uint(j)
	from := uint64(0)
	if set {
		from = bit
	}
	b := blo
	for a := lo; a < hi; a++ {
		la := locs[a]
		if la&bit != from {
			continue
		}
		want := la ^ bit
		for b < bhi && locs[b] < want {
			b++
		}
		if b == bhi {
			return
		}
		if locs[b] == want {
			up[a*d+j] = int32(b)
		}
	}
}

// EnsureLevelIndexes materializes the level indexes for every stored
// level (1..H-1), top down, and returns them (indexes[h-1] is level
// h): level h is filled from level h-1's entries and linked from
// level h-1's links. The call is idempotent and cheap after the first
// build; Insert and MergeFrom invalidate the cache. Concurrent calls
// are safe; calling concurrently with tree mutation is not.
func (t *Tree) EnsureLevelIndexes() []*LevelIndex {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.indexes != nil {
		return t.indexes
	}
	counts := t.levelCellCountsWalk()
	idxs := make([]*LevelIndex, t.H-1)
	var above *LevelIndex
	for h := 1; h <= t.H-1; h++ {
		ix, runs := t.fillLevel(h, counts[h], above)
		ix.linkUpper(above, runs)
		idxs[h-1] = ix
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
