// Level indexes: flat, immutable snapshots of the Counting-tree's
// levels for the β-search. Each entry carries its cell's root path and
// arena Ref, plus its face sum: the total point count of the cell's
// stored face neighbors, both sides of every axis. The face-mask
// convolution of an entry is then 2d·N − FaceSum, one array read
// instead of 2d root-to-leaf descents (Tree.CellAt, O(h) child lookups
// per probe).
//
// Every level lists its cells in lexicographic path order, whatever
// arena order the tree was built in: level h holds, for each level h-1
// entry in turn, that cell's children ascending by loc. Each parent's
// children therefore form one sorted, contiguous run, which makes the
// entry index the path order (the β-search breaks value ties by index)
// and lets the face neighbors be found by merge walks over runs instead
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
	"math/bits"
	"unsafe"
)

// LevelIndex is the flat snapshot of one tree level: one slab of
// entries in lexicographic path order (entry a precedes entry b exactly
// when PathOf(a).Compare(PathOf(b)) < 0), with the full root path, the
// face sum and the arena Ref of every entry. Entries resolve counters
// (N, Used) through the owning tree's arena columns, so an index adds
// no copy of the counts.
type LevelIndex struct {
	// Level is the tree level the index covers (1 <= Level <= H-1).
	Level int

	t *Tree
	d int
	n int

	// Slabs, entry i occupying [i*width, (i+1)*width):
	paths []uint64 // width Level: the cell's root path words
	refs  []Ref    // the stored cell's arena Ref
	face  []int64  // Σ N over the entry's stored face neighbors
	// up (width d) is entry i's upper face neighbor per axis, -1 when
	// absent. The level below reads it to find its own neighbors, so it
	// lives only until that level is linked, and the last level never
	// records it (see buildLevelIndexes).
	up []int32
}

// Len returns the number of stored cells at the level.
func (ix *LevelIndex) Len() int { return ix.n }

// Ref returns entry i's arena Ref in the owning tree.
func (ix *LevelIndex) Ref(i int) Ref { return ix.refs[i] }

// N returns entry i's point count, read through the owning tree's
// arena.
func (ix *LevelIndex) N(i int) int32 { return ix.t.n[ix.refs[i]] }

// Used reports entry i's usedCell flag, read through the owning tree's
// arena (so SetUsed during the scan is visible without a rebuild).
func (ix *LevelIndex) Used(i int) bool { return ix.t.used[ix.refs[i]] }

// FaceSum returns the summed point counts of entry i's stored face
// neighbors, lower and upper along every axis: the 2d face terms of the
// Laplacian mask, so the entry's face value is 2d·N(i) − FaceSum(i).
func (ix *LevelIndex) FaceSum(i int) int64 { return ix.face[i] }

// PathOf returns entry i's root path as a view into the index's slab.
// The view is immutable and stable for the lifetime of the index;
// callers must not modify it.
func (ix *LevelIndex) PathOf(i int) Path {
	h := ix.Level
	return Path(ix.paths[i*h : (i+1)*h : (i+1)*h])
}

// MemoryBytes is the exact footprint of the index: its slabs and ref
// slice.
func (ix *LevelIndex) MemoryBytes() uint64 {
	var total uint64
	total += uint64(unsafe.Sizeof(*ix))
	total += uint64(cap(ix.paths)) * 8
	total += uint64(cap(ix.refs)) * uint64(unsafe.Sizeof(NilRef))
	total += uint64(cap(ix.face)) * 8
	total += uint64(cap(ix.up)) * 4
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
// that cell's children ascending by loc — and fills each entry's path
// and Ref from its parent entry's. appendChildren reads a run that
// Build, a spilled build or MergeFrom chained ascending as it stands,
// and sorts only those of a tree grown in first-touch order
// (InsertBatch).
func (t *Tree) fillLevel(h, n int, above *LevelIndex) (*LevelIndex, levelRuns) {
	ix := &LevelIndex{
		Level: h,
		t:     t,
		d:     t.D,
		n:     n,
		paths: make([]uint64, n*h),
		refs:  make([]Ref, 0, n),
		face:  make([]int64, n),
	}
	parRefs := []Ref{rootRef}
	var parPaths []uint64
	if above != nil {
		parRefs, parPaths = above.refs, above.paths
	}
	runs := levelRuns{kids: make([]int32, len(parRefs)+1), locs: make([]uint64, n)}
	for p, par := range parRefs {
		lo := len(ix.refs)
		runs.kids[p] = int32(lo)
		ix.refs = t.appendChildren(ix.refs, par)
		parPath := parPaths[p*(h-1) : (p+1)*(h-1)]
		for i := lo; i < len(ix.refs); i++ {
			loc := t.loc[ix.refs[i]]
			runs.locs[i] = loc
			path := ix.paths[i*h : (i+1)*h]
			copy(path, parPath)
			path[h-1] = loc
		}
	}
	runs.kids[len(parRefs)] = int32(len(ix.refs))
	return ix, runs
}

// linkUpper finds the upper face neighbor of every entry along every
// axis from the link rows of the level above (above is nil at level 1),
// by the hierarchical neighbor rule of quadtrees: along axis j, a cell
// whose loc bit j is clear sits in the lower half of its parent, so its
// upper neighbor is the sibling at loc|1<<j; a cell whose bit j is set
// sits in the upper half, so its upper neighbor is the child at
// loc&^1<<j of the parent's upper neighbor — absent when that one is
// absent, and always absent at level 1, where the parent is the whole
// cube. Each pair found adds each cell's count into the other's face
// sum: a cell's lower neighbor along j is the cell whose upper neighbor
// it is, so the upper links alone reach every face adjacency once.
// With rows set, the links are also recorded in the level's link rows
// for the level below.
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
func (ix *LevelIndex) linkUpper(above *LevelIndex, runs levelRuns, rows bool) {
	d, kids, locs := ix.d, runs.kids, runs.locs
	if rows {
		ix.up = make([]int32, ix.n*d)
		for i := range ix.up {
			ix.up[i] = -1
		}
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
			ix.mergeLinks(locs, lo, hi, lo, hi, bits.TrailingZeros64(m), false)
		}
		if above == nil {
			continue
		}
		parUp := above.up[p*d : (p+1)*d]
		for m := or; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			if q := parUp[j]; q >= 0 {
				ix.mergeLinks(locs, lo, hi, int(kids[q]), int(kids[q+1]), j, true)
			}
		}
	}
}

// mergeLinks links every entry of the sorted run [lo, hi) whose loc bit
// j equals set to the entry of the sorted run [blo, bhi) at its loc
// with bit j flipped, when that entry is stored: the two add each
// other's count into their face sums, and the link goes into the link
// rows when the level keeps them. The flipped locs ascend with the
// sources, so the target cursor only moves forward.
func (ix *LevelIndex) mergeLinks(locs []uint64, lo, hi, blo, bhi, j int, set bool) {
	n, refs, face, up := ix.t.n, ix.refs, ix.face, ix.up
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
			face[a] += int64(n[refs[b]])
			face[b] += int64(n[refs[a]])
			if up != nil {
				up[a*ix.d+j] = int32(b)
			}
		}
	}
}

// EnsureLevelIndexes materializes the level indexes for every stored
// level (1..H-1) and returns them (indexes[h-1] is level h). The call
// is idempotent and cheap after the first build; Insert and MergeFrom
// invalidate the cache. Concurrent calls are safe; calling concurrently
// with tree mutation is not.
func (t *Tree) EnsureLevelIndexes() []*LevelIndex {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.indexes == nil {
		t.indexes = t.buildLevelIndexes(false)
	}
	return t.indexes
}

// buildLevelIndexes builds the index of every stored level, top down:
// level h is filled from level h-1's entries and linked from level
// h-1's link rows. Only the level below reads a level's link rows, so
// unless keepLinks is set they are dropped as soon as that level is
// linked, and the last level never records them: at most two levels'
// rows are alive at once, and none outlive the build.
func (t *Tree) buildLevelIndexes(keepLinks bool) []*LevelIndex {
	counts := t.levelCellCountsWalk()
	idxs := make([]*LevelIndex, t.H-1)
	var above *LevelIndex
	for h := 1; h <= t.H-1; h++ {
		ix, runs := t.fillLevel(h, counts[h], above)
		ix.linkUpper(above, runs, keepLinks || h < t.H-1)
		if above != nil && !keepLinks {
			above.up = nil
		}
		idxs[h-1] = ix
		above = ix
	}
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
