// Level indexes: flat, immutable snapshots of the levels of one
// Counting-tree, or of the union of several, for the β-search. Each
// entry carries its cell's root path, its point count summed over the
// source trees, one arena Ref per source (NilRef where that source
// lacks the cell), the usedCell flag the search sets, and its face sum:
// the total point count of the cell's stored face neighbors, both sides
// of every axis. The face-mask convolution of an entry is then
// 2d·N − FaceSum, one array read instead of 2d root-to-leaf descents.
//
// Every level lists its cells in lexicographic path order, whatever
// arena order the sources were built in: level h holds, for each level
// h-1 entry in turn, that cell's children ascending by loc, the merge of
// every source's child run. Each parent's children therefore form one
// sorted, contiguous run, which makes the entry index the path order
// (the β-search breaks value ties by index and finds a cell by path
// with a binary search) and lets the face neighbors be found by merge
// walks over runs instead of child lookups.
//
// Point counts, half-space counts and face sums all add up across
// trees, so the index over several trees (UnionLevelIndexes) answers
// the β-search exactly as the index of their MergeFrom would, without
// writing a merged arena: the trees are walked together, as in Gray and
// Moore's multi-tree methods, rather than combined first.
// Tree.EnsureLevelIndexes is the one-tree case, cached on the tree; it
// stays valid for as long as the tree's cell set does not change
// (Insert and MergeFrom invalidate it). An index reads its sources'
// half-space counters, so mutating a source concurrently with index
// access is not supported (the pipeline never does: indexes are built
// before the scan workers fan out, and scan workers only read).
package ctree

import (
	"errors"
	"fmt"
	"math/bits"
	"unsafe"
)

// LevelIndex is the flat snapshot of one level of the union of its
// source trees: one slab per column in lexicographic path order (entry
// a precedes entry b exactly when PathOf(a).Compare(PathOf(b)) < 0).
// It owns each entry's summed point count and usedCell flag; the
// half-space counts are read through the per-source Refs.
type LevelIndex struct {
	// Level is the tree level the index covers (1 <= Level <= H-1).
	Level int
	// D is the sources' dimensionality.
	D int

	srcs []*Tree
	n    int

	// refs[s][i] is entry i's Ref in source s, NilRef where absent.
	refs [][]Ref

	// Slabs, entry i occupying [i*width, (i+1)*width):
	paths []uint64 // width Level: the cell's root path words
	cnt   []int32  // the cell's point count, summed over the sources
	used  []bool   // the usedCell flag the β-search sets
	face  []int64  // Σ N over the entry's stored face neighbors
	// up (width d) is entry i's upper face neighbor per axis, -1 when
	// absent. The level below reads it to find its own neighbors, so it
	// lives only until that level is linked, and the last level never
	// records it (see buildLevelIndexes).
	up []int32
}

// Len returns the number of stored cells at the level.
func (ix *LevelIndex) Len() int { return ix.n }

// Ref returns entry i's arena Ref in source src (the index's src-th
// tree), or NilRef when that source does not store the cell.
func (ix *LevelIndex) Ref(i, src int) Ref { return ix.refs[src][i] }

// N returns entry i's point count, summed over the sources.
func (ix *LevelIndex) N(i int) int32 { return ix.cnt[i] }

// P returns entry i's half-space count along axis j (its points in the
// lower half of axis j, at the next level's granularity), summed over
// the sources that store the cell.
func (ix *LevelIndex) P(i, j int) int32 {
	var sum int32
	for s, refs := range ix.refs {
		if r := refs[i]; r >= 0 {
			sum += ix.srcs[s].P(r, j)
		}
	}
	return sum
}

// Used reports entry i's usedCell flag.
func (ix *LevelIndex) Used(i int) bool { return ix.used[i] }

// SetUsed sets entry i's usedCell flag. The β-search marks the winning
// cell of each scan pass this way; the source trees' own flags are not
// touched.
func (ix *LevelIndex) SetUsed(i int, used bool) { ix.used[i] = used }

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

// Find returns the entry index of the cell at path p, or -1 when no
// source stores it. The entries ascend in path order, so it is a binary
// search; p must address the index's level.
func (ix *LevelIndex) Find(p Path) int {
	h := ix.Level
	if len(p) != h {
		return -1
	}
	paths, lo, hi := ix.paths, 0, ix.n
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if pathLess(paths[m*h:m*h+h], p) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < ix.n && !pathLess(p, paths[lo*h:lo*h+h]) {
		return lo
	}
	return -1
}

// pathLess reports whether path a precedes path b of the same length.
func pathLess(a, b []uint64) bool {
	for i, w := range a {
		if w != b[i] {
			return w < b[i]
		}
	}
	return false
}

// MemoryBytes is the exact footprint of the index's slabs.
func (ix *LevelIndex) MemoryBytes() uint64 {
	var total uint64
	total += uint64(unsafe.Sizeof(*ix))
	total += uint64(cap(ix.paths)) * 8
	for _, refs := range ix.refs {
		total += uint64(unsafe.Sizeof(refs)) + uint64(cap(refs))*uint64(unsafe.Sizeof(NilRef))
	}
	total += uint64(cap(ix.cnt)) * 4
	total += uint64(cap(ix.used))
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

// fillLevel lists level h's cells of the union of srcs in path order —
// for each entry of above in turn (at level 1, where above is nil, the
// sources' root sentinels), the merge of every source's child run of
// that cell, ascending by loc — and fills each entry's path from its
// parent entry's, its per-source Refs and its summed count. n bounds
// the level's entry count. appendChildren reads a run that Build, a
// spilled build or MergeFrom chained ascending as it stands, and sorts
// only those of a tree grown in first-touch order (InsertBatch). A
// parent whose children all sit in one source (every parent of a lone
// source's index) takes that source's run whole.
func fillLevel(srcs []*Tree, h, n int, above *LevelIndex) (*LevelIndex, levelRuns) {
	k := len(srcs)
	ix := &LevelIndex{
		Level: h,
		srcs:  srcs,
		D:     srcs[0].D,
		paths: make([]uint64, 0, n*h),
		refs:  make([][]Ref, k),
		cnt:   make([]int32, 0, n),
	}
	parents, parRefs := 1, make([][]Ref, k)
	for s := range srcs {
		ix.refs[s] = make([]Ref, 0, n)
		parRefs[s] = []Ref{rootRef}
	}
	var parPaths []uint64
	if above != nil {
		parents, parRefs, parPaths = above.n, above.refs, above.paths
	}
	runs := levelRuns{kids: make([]int32, parents+1), locs: make([]uint64, 0, n)}
	kids := make([][]Ref, k) // each source's child run of the current parent
	pos := make([]int, k)
	for p := 0; p < parents; p++ {
		runs.kids[p] = int32(len(ix.cnt))
		parPath := parPaths[p*(h-1) : (p+1)*(h-1)]
		lone, sources := 0, 0
		for s, t := range srcs {
			kids[s], pos[s] = kids[s][:0], 0
			if r := parRefs[s][p]; r >= 0 {
				if kids[s] = t.appendChildren(kids[s], r); len(kids[s]) > 0 {
					lone, sources = s, sources+1
				}
			}
		}
		if sources <= 1 {
			t, run := srcs[lone], kids[lone]
			for s := range srcs {
				if s == lone {
					ix.refs[s] = append(ix.refs[s], run...)
					continue
				}
				for range run {
					ix.refs[s] = append(ix.refs[s], NilRef)
				}
			}
			for _, c := range run {
				loc := t.loc[c]
				ix.cnt = append(ix.cnt, t.n[c])
				runs.locs = append(runs.locs, loc)
				ix.paths = append(append(ix.paths, parPath...), loc)
			}
			continue
		}
		for {
			// The union's next child is the smallest loc at the head of
			// any source's run; every source whose head holds it stores
			// the cell.
			loc, found := uint64(0), false
			for s, t := range srcs {
				if pos[s] < len(kids[s]) {
					if l := t.loc[kids[s][pos[s]]]; !found || l < loc {
						loc, found = l, true
					}
				}
			}
			if !found {
				break
			}
			var cnt int32
			for s, t := range srcs {
				r := NilRef
				if pos[s] < len(kids[s]) && t.loc[kids[s][pos[s]]] == loc {
					r = kids[s][pos[s]]
					pos[s]++
					cnt += t.n[r]
				}
				ix.refs[s] = append(ix.refs[s], r)
			}
			ix.cnt = append(ix.cnt, cnt)
			runs.locs = append(runs.locs, loc)
			ix.paths = append(append(ix.paths, parPath...), loc)
		}
	}
	ix.n = len(ix.cnt)
	runs.kids[parents] = int32(ix.n)
	ix.used = make([]bool, ix.n)
	ix.face = make([]int64, ix.n)
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
	d, kids, locs := ix.D, runs.kids, runs.locs
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
	cnt, face, up := ix.cnt, ix.face, ix.up
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
			face[a] += int64(cnt[b])
			face[b] += int64(cnt[a])
			if up != nil {
				up[a*ix.D+j] = int32(b)
			}
		}
	}
}

// EnsureLevelIndexes materializes the level indexes of t alone for
// every stored level (1..H-1) and returns them (indexes[h-1] is level
// h). The call is idempotent and cheap after the first build; Insert
// and MergeFrom invalidate the cache, and ResetUsed clears its usedCell
// flags. Concurrent calls are safe; calling concurrently with tree
// mutation is not.
func (t *Tree) EnsureLevelIndexes() []*LevelIndex {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.indexes == nil {
		t.indexes = buildLevelIndexes([]*Tree{t}, false)
	}
	return t.indexes
}

// UnionLevelIndexes builds the level indexes of the union of srcs
// (indexes[h-1] is level h): every cell any source stores, in path
// order, with its counts summed over the sources. The result is not
// cached on any source, and the sources must not change while it is in
// use. Like MergeFrom, it refuses sources of different geometry or
// whose points sum past MaxPoints.
func UnionLevelIndexes(srcs ...*Tree) ([]*LevelIndex, error) {
	if len(srcs) == 0 {
		return nil, errors.New("ctree: no trees to index")
	}
	if err := checkUnion(srcs...); err != nil {
		return nil, err
	}
	return buildLevelIndexes(srcs, false), nil
}

// checkUnion reports whether trees can be counted as one: the same
// dimensionality and resolution count, and at most MaxPoints points in
// total, since every cell counter is int32 and the union's level-1
// cells count every point.
func checkUnion(trees ...*Tree) error {
	first, eta := trees[0], int64(0)
	for _, t := range trees {
		if t.D != first.D || t.H != first.H {
			return fmt.Errorf("ctree: cannot combine (d=%d, H=%d) with (d=%d, H=%d)",
				first.D, first.H, t.D, t.H)
		}
		eta += int64(t.Eta)
	}
	if eta > int64(MaxPoints) {
		return fmt.Errorf("ctree: combining %d points exceeds the int32 cell-counter maximum %d (MaxPoints); shard into separate trees",
			eta, int64(MaxPoints))
	}
	return nil
}

// buildLevelIndexes builds the index of every stored level of the union
// of srcs, top down: level h is filled from level h-1's entries and
// linked from level h-1's link rows. Only the level below reads a
// level's link rows, so unless keepLinks is set they are dropped as
// soon as that level is linked, and the last level never records them:
// at most two levels' rows are alive at once, and none outlive the
// build.
func buildLevelIndexes(srcs []*Tree, keepLinks bool) []*LevelIndex {
	H := srcs[0].H
	// A level of the union holds at most the sources' cells together,
	// and exactly those of a lone source.
	bound := make([]int, H)
	for _, t := range srcs {
		for h, c := range t.levelCellCountsWalk() {
			bound[h] += c
		}
	}
	idxs := make([]*LevelIndex, H-1)
	var above *LevelIndex
	for h := 1; h <= H-1; h++ {
		ix, runs := fillLevel(srcs, h, bound[h], above)
		ix.linkUpper(above, runs, keepLinks || h < H-1)
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
