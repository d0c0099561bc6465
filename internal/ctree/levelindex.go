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
// every source's child run. The fill reads each source's level-h cells
// in one pass over its arena, which lists them in path order already
// when Build, MergeFrom or Canonicalize wrote the tree; those of a tree
// InsertBatch grew in first-touch order are grouped by parent entry and
// sorted by loc first. Each parent's children therefore form one
// sorted, contiguous run, which makes the entry index the path order
// (the β-search breaks value ties by index and finds a cell by path
// with a binary search) and lets the face neighbors be found without
// child lookups: siblings by splitting each run at the top bit in which
// its ends differ, cousins by one merge walk between the runs of two
// neighboring parents, skipped when the runs' AND and OR loc masks show
// that no cell can match.
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
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
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
	// up lists the level's face-neighbor pairs, each cell with its
	// upper neighbor along one axis, in blocks of Len() pairs, so that
	// growing the list never copies it. The level below reads it to
	// find its own neighbors, so it lives only until that level is
	// linked, and the last level never records it (see
	// buildLevelIndexes).
	up [][]upLink
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
	for _, block := range ix.up {
		total += uint64(unsafe.Sizeof(block)) + uint64(cap(block))*uint64(unsafe.Sizeof(upLink{}))
	}
	return total
}

// levelRuns is the transient by-product of one level's fill that its
// links read: the children of the level above's entry p are entries
// kids[p] to kids[p+1]-1, locs[i] is entry i's loc (the last word of
// its path), kept contiguous for the link walks, and and[p] and or[p]
// are the AND and the OR of the locs of p's children (all ones and zero
// for a childless p), which let a cousin walk be skipped unread.
type levelRuns struct {
	kids    []int32
	locs    []uint64
	and, or []uint64
}

// levelSource is one source tree's side of a level's fill: its cells at
// the level, grouped by parent entry in path order.
type levelSource struct {
	t *Tree
	// ordered reports that the arena lists every level in path order
	// (Build, MergeFrom and Canonicalize write trees so), which makes a
	// level's cells, read in arena order, already grouped and sorted.
	ordered bool
	// cells[start[p]:start[p+1]] holds the children of the level above's
	// entry p in this source, ascending by loc.
	cells []Ref
	start []int32
	// next, for a source not in path order, is indexed by arena Ref: the
	// next free position of that parent cell's run in cells. words is
	// sortRun's scratch.
	next  []int32
	words []uint64
}

// gather lists the source's cells at level h by parent entry in path
// order, in one linear pass over its arena. parRefs[p] is the source's
// Ref of the level above's entry p (NilRef where it lacks the cell; the
// root sentinel alone at level 1), whose child count sizes p's run. A
// source in path order lists its level as the arena does; any other
// (InsertBatch grows children in first-touch order) places each cell in
// its parent's run, then orders each run by loc.
func (ls *levelSource) gather(h int, parRefs []Ref) {
	t := ls.t
	ls.start = ls.start[:len(parRefs)+1]
	off := int32(0)
	for p, r := range parRefs {
		ls.start[p] = off
		if r >= 0 {
			off += t.childCount[r]
		}
	}
	ls.start[len(parRefs)] = off
	ls.cells = ls.cells[:off]
	lvl, cells := uint8(h), ls.cells
	if ls.ordered {
		i := 0
		for r, l := range t.level {
			if l == lvl {
				cells[i] = Ref(r)
				i++
			}
		}
		return
	}
	for p, r := range parRefs {
		if r >= 0 {
			ls.next[r] = ls.start[p]
		}
	}
	for r, l := range t.level {
		if l == lvl {
			par := t.parent[r]
			cells[ls.next[par]] = Ref(r)
			ls.next[par]++
		}
	}
	for p := range parRefs {
		ls.sortRun(cells[ls.start[p]:ls.start[p+1]])
	}
}

// sortRun orders one run of cells by loc: an insertion sort for the
// short runs most parents have; past that, an LSD radix sort of each
// cell's loc above its position in the run (radixSortCombo), when the
// two fit one word, or a library sort.
func (ls *levelSource) sortRun(run []Ref) {
	loc, d := ls.t.loc, ls.t.D
	n := len(run)
	if n <= 16 {
		for i := 1; i < n; i++ {
			c, l := run[i], loc[run[i]]
			j := i
			for ; j > 0 && loc[run[j-1]] > l; j-- {
				run[j] = run[j-1]
			}
			run[j] = c
		}
		return
	}
	idxBits := bits.Len(uint(n - 1))
	if d+idxBits > 64 {
		slices.SortFunc(run, func(a, b Ref) int { return cmp.Compare(loc[a], loc[b]) })
		return
	}
	if len(ls.words) < 2*n {
		ls.words = make([]uint64, 2*n)
	}
	keys, tmp := ls.words[:n], ls.words[n:2*n]
	for i, c := range run {
		keys[i] = loc[c]<<idxBits | uint64(i)
	}
	sorted := radixSortCombo(keys, tmp)
	orig := tmp
	if &sorted[0] == &tmp[0] {
		orig = keys
	}
	for i, c := range run {
		orig[i] = uint64(c)
	}
	mask := uint64(1)<<idxBits - 1
	for i, k := range sorted {
		run[i] = Ref(orig[k&mask])
	}
}

// fillLevel lists level h's cells of the union of srcs in path order —
// for each entry of above in turn (at level 1, where above is nil, the
// sources' root sentinels), the merge of every source's child run of
// that cell, ascending by loc — and fills each entry's path from its
// parent entry's, its per-source Refs and its summed count. n bounds
// the level's entry count, and runs carries the reused kids, locs and
// mask buffers. Each source first gathers its level-h cells into runs
// (levelSource.gather); a parent whose children all sit in one source
// (every parent of a lone source's index) takes that source's run
// whole.
func fillLevel(srcs []*levelSource, h, n int, above *LevelIndex, runs levelRuns) (*LevelIndex, levelRuns) {
	k := len(srcs)
	ix := &LevelIndex{
		Level: h,
		srcs:  make([]*Tree, k),
		D:     srcs[0].t.D,
		paths: make([]uint64, 0, n*h),
		refs:  make([][]Ref, k),
		cnt:   make([]int32, 0, n),
	}
	root := []Ref{rootRef}
	parents := 1
	var parPaths []uint64
	if above != nil {
		parents, parPaths = above.n, above.paths
	}
	for s, ls := range srcs {
		ix.srcs[s] = ls.t
		ix.refs[s] = make([]Ref, 0, n)
		if above != nil {
			ls.gather(h, above.refs[s])
		} else {
			ls.gather(h, root)
		}
	}
	runs.kids, runs.locs = runs.kids[:parents+1], runs.locs[:0]
	runs.and, runs.or = runs.and[:parents], runs.or[:parents]
	const done = ^uint64(0)
	pos, head := make([]int32, k), make([]uint64, k)
	for p := 0; p < parents; p++ {
		runs.kids[p] = int32(len(ix.cnt))
		parPath := parPaths[p*(h-1) : (p+1)*(h-1)]
		and, or := ^uint64(0), uint64(0)
		lone, sources := 0, 0
		for s, ls := range srcs {
			if pos[s] = ls.start[p]; ls.start[p+1] > pos[s] {
				lone, sources = s, sources+1
			}
		}
		if sources <= 1 {
			ls := srcs[lone]
			t, run := ls.t, ls.cells[ls.start[p]:ls.start[p+1]]
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
				and, or = and&loc, or|loc
				ix.cnt = append(ix.cnt, t.n[c])
				runs.locs = append(runs.locs, loc)
				ix.paths = append(append(ix.paths, parPath...), loc)
			}
			runs.and[p], runs.or[p] = and, or
			continue
		}
		// The union's next child is the smallest loc at the head of any
		// source's run; every source whose head holds it stores the cell.
		// A loc has at most MaxDims < 64 bits, so all ones marks a run
		// read to its end.
		for s, ls := range srcs {
			head[s] = done
			if pos[s] < ls.start[p+1] {
				head[s] = ls.t.loc[ls.cells[pos[s]]]
			}
		}
		for {
			loc := done
			for _, l := range head {
				loc = min(loc, l)
			}
			if loc == done {
				break
			}
			var cnt int32
			for s, ls := range srcs {
				r := NilRef
				if head[s] == loc {
					r = ls.cells[pos[s]]
					cnt += ls.t.n[r]
					if pos[s]++; pos[s] < ls.start[p+1] {
						head[s] = ls.t.loc[ls.cells[pos[s]]]
					} else {
						head[s] = done
					}
				}
				ix.refs[s] = append(ix.refs[s], r)
			}
			and, or = and&loc, or|loc
			ix.cnt = append(ix.cnt, cnt)
			runs.locs = append(runs.locs, loc)
			ix.paths = append(append(ix.paths, parPath...), loc)
		}
		runs.and[p], runs.or[p] = and, or
	}
	ix.n = len(ix.cnt)
	runs.kids[parents] = int32(ix.n)
	ix.used = make([]bool, ix.n)
	ix.face = make([]int64, ix.n)
	return ix, runs
}

// upLink records that entry b is entry a's upper face neighbor along
// the one axis in which their locs differ.
type upLink struct{ a, b int32 }

// loc returns entry i's loc, the last word of its path.
func (ix *LevelIndex) loc(i int) uint64 { return ix.paths[i*ix.Level+ix.Level-1] }

// linkUpper finds every pair of face neighbors at the level, a cell and
// its upper neighbor along one axis, by the hierarchical neighbor rule
// of quadtrees: along axis j, a cell whose loc bit j is clear sits in
// the lower half of its parent, so its upper neighbor is the sibling at
// loc|1<<j; a cell whose bit j is set sits in the upper half, so its
// upper neighbor is the child at loc&^1<<j of the parent's upper
// neighbor — absent when that one is absent, and always absent at level
// 1, where the parent is the whole cube. Each pair found adds each
// cell's count into the other's face sum: a cell's lower neighbor along
// j is the cell whose upper neighbor it is, so the upper links alone
// reach every face adjacency once. With rows set, the pairs are also
// recorded in the level's link list (up) for the level below.
//
// Siblings come from splitting each run (linkSiblings). Cousins come
// from the level above's link list: a parent pair (p, q) along axis j
// is walked as one merge of p's children with bit j set against q's
// with bit j clear, unless the runs' masks show no pair can match: a
// match agrees on every other bit, so a bit set in all of one run and
// in none of the other, or bit j set in all of q's run, rules it out.
func (ix *LevelIndex) linkUpper(above *LevelIndex, runs levelRuns, rows bool) {
	kids, locs := runs.kids, runs.locs
	if rows {
		ix.up = [][]upLink{}
	}
	for p := 0; p+1 < len(kids); p++ {
		ix.linkSiblings(locs, int(kids[p]), int(kids[p+1]))
	}
	if above == nil {
		return
	}
	for _, block := range above.up {
		for _, l := range block {
			p, q := l.a, l.b
			j := bits.TrailingZeros64(above.loc(int(p)) ^ above.loc(int(q)))
			bit := uint64(1) << uint(j)
			andP, orP, andQ, orQ := runs.and[p], runs.or[p], runs.and[q], runs.or[q]
			if orP&bit == 0 || andQ&bit != 0 || (andP&^orQ|andQ&^orP)&^bit != 0 {
				continue
			}
			ix.mergeLinks(locs, int(kids[p]), int(kids[p+1]), int(kids[q]), int(kids[q+1]), j, true)
		}
	}
}

// addLink appends the pair (a, b) to the level's link list, opening a
// block of Len() pairs when the last one is full.
func (ix *LevelIndex) addLink(a, b int) {
	last := len(ix.up) - 1
	if last < 0 || len(ix.up[last]) == cap(ix.up[last]) {
		ix.up = append(ix.up, make([]upLink, 0, ix.n))
		last++
	}
	ix.up[last] = append(ix.up[last], upLink{int32(a), int32(b)})
}

// linkSiblings links every pair of face neighbors within the sorted run
// [lo, hi), children of one parent. Every loc of the run shares the bits
// above the top bit j in which its ends differ, so the run splits at
// its first loc with bit j set: pairs along axis j cross the split, and
// every other pair, agreeing in bit j, lies inside one half, which is
// split the same way. A run of one repeated loc (which a trusted
// snapshot load does not rule out) holds no pair; a run of at most
// four cells is checked pair by pair instead.
func (ix *LevelIndex) linkSiblings(locs []uint64, lo, hi int) {
	for hi-lo > 4 {
		diff := locs[lo] ^ locs[hi-1]
		if diff == 0 {
			return
		}
		j := 63 - bits.LeadingZeros64(diff)
		bit := uint64(1) << uint(j)
		m, top := lo+1, hi-1
		for m < top {
			if mid := int(uint(m+top) >> 1); locs[mid]&bit != 0 {
				top = mid
			} else {
				m = mid + 1
			}
		}
		ix.mergeLinks(locs, lo, m, m, hi, j, false)
		ix.linkSiblings(locs, lo, m)
		lo = m
	}
	// Two sorted locs are neighbors when they differ in one bit, the
	// larger one's; a cell links to the first of a repeated neighbor
	// loc only, as the merge walk does.
	for a := lo; a < hi; a++ {
		la := locs[a]
		for b := a + 1; b < hi; b++ {
			if diff := la ^ locs[b]; diff != 0 && diff&(diff-1) == 0 && locs[b] != locs[b-1] {
				ix.link(a, b)
			}
		}
	}
}

// link adds the counts of entry a and its upper face neighbor b into
// each other's face sums, and the pair into the link list when the
// level keeps one.
func (ix *LevelIndex) link(a, b int) {
	ix.face[a] += int64(ix.cnt[b])
	ix.face[b] += int64(ix.cnt[a])
	if ix.up != nil {
		ix.addLink(a, b)
	}
}

// mergeLinks links every entry of the sorted run [lo, hi) whose loc bit
// j equals set to the entry of the sorted run [blo, bhi) at its loc
// with bit j flipped, when that entry is stored. The flipped locs ascend
// with the sources, so the target cursor only moves forward.
func (ix *LevelIndex) mergeLinks(locs []uint64, lo, hi, blo, bhi, j int, set bool) {
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
			ix.link(a, b)
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
// linked from level h-1's link list. Only the level below reads a
// level's link list, so unless keepLinks is set it is dropped as soon
// as that level is linked, and the last level never records one: at
// most two levels' lists are alive at once, and none outlive the build.
// The fill's per-source buffers and the runs are sized once, for the
// largest level, and reused level to level.
func buildLevelIndexes(srcs []*Tree, keepLinks bool) []*LevelIndex {
	H := srcs[0].H
	// A level of the union holds at most the sources' cells together,
	// and exactly those of a lone source.
	bound := make([]int, H)
	ls := make([]*levelSource, len(srcs))
	for s, t := range srcs {
		ls[s] = &levelSource{t: t, ordered: t.canonical()}
		most := 0
		for h, c := range t.levelCellCountsWalk() {
			bound[h] += c
			most = max(most, c)
		}
		ls[s].cells = make([]Ref, most)
		if !ls[s].ordered {
			ls[s].next = make([]int32, len(t.loc))
		}
	}
	// Level h has at most bound[h-1] parents (one, the root, at level 1).
	parents, entries := 1, 0
	for h := 1; h <= H-1; h++ {
		entries = max(entries, bound[h])
		if h < H-1 {
			parents = max(parents, bound[h])
		}
	}
	for _, l := range ls {
		l.start = make([]int32, parents+1)
	}
	masks := make([]uint64, 2*parents)
	runs := levelRuns{
		kids: make([]int32, parents+1),
		locs: make([]uint64, 0, entries),
		and:  masks[:parents],
		or:   masks[parents:],
	}
	idxs := make([]*LevelIndex, H-1)
	var above *LevelIndex
	for h := 1; h <= H-1; h++ {
		var ix *LevelIndex
		ix, runs = fillLevel(ls, h, bound[h], above, runs)
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
