// Level indexes: flat, immutable snapshots of the levels of one
// Counting-tree, or of the union of several, for the β-search. Each
// entry keeps what its cell keeps in a tree: its loc and its parent,
// here the entry index of its parent cell at the level above. Beside
// those it holds its point count summed over the source trees, one
// arena Ref per source (NilRef where that source lacks the cell) and
// its face sum: the total point count of the cell's stored face
// neighbors, both sides of every axis. The face-mask convolution of an
// entry is then 2d·N − FaceSum, one array read instead of 2d
// root-to-leaf descents. A root path is rebuilt on demand, by walking
// the parents up into a buffer the caller owns, so an entry costs the
// same at every level. The search's usedCell flags are not here: each
// run keeps its own (internal/core), so nothing writes an index once it
// is built.
//
// Every level lists its cells in lexicographic path order: level h
// holds, for each level h-1 entry in turn, that cell's children
// ascending by loc, the merge of every source's child run. That merge
// (levelMerger) is the package's one union kernel: Union runs it too,
// and writes the merged levels out as a tree. It reads each source's
// level-h cells in one pass over its arena, which lists them in path
// order already, as every tree's arena does (arena.go). Each parent's
// children therefore form one sorted, contiguous run, whose offsets the
// level keeps (kids). That makes the entry index the path order (the
// β-search breaks value ties by index), lets a path be found by one
// binary search per level over a parent's run, and lets the face
// neighbors be found without child lookups: siblings by splitting each
// run at the top bit in which its ends differ, cousins by one merge walk
// between the runs of two neighboring parents, skipped when the runs'
// AND and OR loc masks show that no cell can match.
//
// Point counts, half-space counts and face sums all add up across
// trees, so the index over several trees (UnionLevelIndexes) answers
// the β-search exactly as the index of their Union would, without
// writing a merged arena: the trees are walked together, as in Gray and
// Moore's multi-tree methods, rather than combined first. One tree is
// the case k = 1. Nothing caches an index: each run builds the one it
// reads, and it goes when the run ends. Any number of runs may read
// one index at once. An index reads its sources' half-space counters,
// so mutating a source (InsertBatch, MergeFrom) while an index over it
// is in use is not supported.
package ctree

import (
	"math/bits"
	"slices"
	"unsafe"
)

// LevelIndex is the flat snapshot of one level of the union of its
// source trees: one slab per column in lexicographic path order (entry
// a precedes entry b exactly when PathInto(nil, a) precedes
// PathInto(nil, b)). It owns each entry's summed point count; the
// half-space counts are read through the per-source Refs.
type LevelIndex struct {
	// Level is the tree level the index covers (1 <= Level <= H-1).
	Level int
	// D is the sources' dimensionality.
	D int

	srcs []*Tree
	n    int
	// above is the index of level Level-1, nil at level 1, whose
	// parent is the root.
	above *LevelIndex

	// refs[s][i] is entry i's Ref in source s, NilRef where absent.
	refs [][]Ref

	// Columns, one value per entry:
	locs   []uint64 // the cell's loc, the last word of its root path
	parent []int32  // the parent cell's entry in above (nil at level 1)
	cnt    []int32  // the cell's point count, summed over the sources
	face   []int64  // Σ N over the entry's stored face neighbors
	// kids[p] to kids[p+1]-1 are the children of above's entry p (nil
	// at level 1, which is the root's one run).
	kids []int32
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

// FaceSum returns the summed point counts of entry i's stored face
// neighbors, lower and upper along every axis: the 2d face terms of the
// Laplacian mask, so the entry's face value is 2d·N(i) − FaceSum(i).
func (ix *LevelIndex) FaceSum(i int) int64 { return ix.face[i] }

// Parent returns the entry index of entry i's parent cell in the index
// of the level above. Level 1 has none: its cells' parent is the root.
func (ix *LevelIndex) Parent(i int) int { return int(ix.parent[i]) }

// PathInto writes entry i's root path into buf, grown as needed (nil
// is fine), and returns it: the entry's loc preceded by its parent's
// path, read up the parent entries. Callers that visit many entries
// pass the previous result back in, so a visit allocates nothing.
func (ix *LevelIndex) PathInto(buf Path, i int) Path {
	if cap(buf) < ix.Level {
		buf = make(Path, ix.Level)
	}
	buf = buf[:ix.Level]
	for l := ix; l != nil; l = l.above {
		buf[l.Level-1] = l.locs[i]
		if l.parent != nil {
			i = int(l.parent[i])
		}
	}
	return buf
}

// Find returns the entry index of the cell at path p, or -1 when no
// source stores it; p must address the index's level. It walks down
// from level 1, with one binary search per level over the run of
// children of the entry found at the level above.
func (ix *LevelIndex) Find(p Path) int {
	if len(p) != ix.Level {
		return -1
	}
	var levels [MaxLevels]*LevelIndex
	for l := ix; l != nil; l = l.above {
		levels[l.Level-1] = l
	}
	i := -1
	for h, l := range levels[:len(p)] {
		lo, hi := 0, l.n
		if h > 0 {
			lo, hi = int(l.kids[i]), int(l.kids[i+1])
		}
		k, ok := slices.BinarySearch(l.locs[lo:hi], p[h])
		if !ok {
			return -1
		}
		i = lo + k
	}
	return i
}

// MemoryBytes is the exact footprint of the index's slabs.
func (ix *LevelIndex) MemoryBytes() uint64 {
	var total uint64
	total += uint64(unsafe.Sizeof(*ix))
	total += uint64(cap(ix.locs)) * 8
	total += uint64(cap(ix.parent)+cap(ix.kids)) * 4
	for _, refs := range ix.refs {
		total += uint64(unsafe.Sizeof(refs)) + uint64(cap(refs))*uint64(unsafe.Sizeof(NilRef))
	}
	total += uint64(cap(ix.cnt)) * 4
	total += uint64(cap(ix.face)) * 8
	for _, block := range ix.up {
		total += uint64(unsafe.Sizeof(block)) + uint64(cap(block))*uint64(unsafe.Sizeof(upLink{}))
	}
	return total
}

// levelRuns is the by-product of one level's merge that the index's
// columns and links and Union's writer read: the children of the level
// above's entry p are entries kids[p] to kids[p+1]-1, locs[i] is entry
// i's loc (the last word of its path), kept contiguous for the link
// walks, and and[p] and or[p] are the AND and the OR of the locs of p's
// children (all ones and zero for a childless p), which let a cousin
// walk be skipped unread.
type levelRuns struct {
	kids    []int32
	locs    []uint64
	and, or []uint64
}

// levelSource is one source tree's side of a level's merge: its cells
// at the level, grouped by parent entry in path order.
type levelSource struct {
	t *Tree
	// cells[start[p]:start[p+1]] holds the children of the level above's
	// entry p in this source, ascending by loc.
	cells []Ref
	start []int32
}

// gather lists the source's cells at level h by parent entry in path
// order, in one linear pass over its arena. parRefs[p] is the source's
// Ref of the level above's entry p (NilRef where it lacks the cell; the
// root sentinel alone at level 1). The arena is in DFS preorder, so
// each level-h cell's parent is the latest level-(h-1) row before it,
// and the level-(h-1) rows come in the order parRefs lists them: each
// one starts its entry's run.
func (ls *levelSource) gather(h int, parRefs []Ref) {
	lvl, up := uint8(h), uint8(h-1)
	cells, start, next := ls.cells[:0], ls.start[:len(parRefs)+1], 0
	for r, l := range ls.t.level {
		switch l {
		case lvl:
			cells = append(cells, Ref(r))
		case up:
			// Row r is the next entry this source stores: its run starts
			// here, and so do the empty runs of the entries before it,
			// which the source lacks.
			for parRefs[next] != Ref(r) {
				start[next] = int32(len(cells))
				next++
			}
			start[next] = int32(len(cells))
			next++
		}
	}
	for ; next < len(start); next++ {
		start[next] = int32(len(cells))
	}
	ls.cells, ls.start = cells, start
}

// levelMerger is the union kernel that the level-index build and Union
// share: the k-way merge of the sources' levels, top down, one level at
// a time. Level h of the union lists, for each entry of level h-1 in
// turn, the merge of every source's child run of that cell, ascending by
// loc. The sources' buffers are sized once, for the largest level, and
// reused level to level.
type levelMerger struct {
	srcs []*levelSource
	// bound[h] bounds level h's entries: the sources' cells at the level
	// together, exactly those of a lone source.
	bound []int
	// parents and entries bound any level's parents (the root alone at
	// level 1) and entries.
	parents, entries int
	// roots holds each source's root sentinel, the parents of level 1.
	roots [][]Ref
	// pos and head are the merge's cursor and head loc in each source.
	pos  []int32
	head []uint64
}

// newLevelMerger sets up the merge of the levels of srcs.
func newLevelMerger(srcs []*Tree) *levelMerger {
	k, H := len(srcs), srcs[0].H
	m := &levelMerger{
		srcs:    make([]*levelSource, k),
		bound:   make([]int, H),
		parents: 1,
		roots:   make([][]Ref, k),
		pos:     make([]int32, k),
		head:    make([]uint64, k),
	}
	for s, t := range srcs {
		most := 0
		for h, c := range t.levelCellCountsWalk() {
			m.bound[h] += c
			most = max(most, c)
		}
		m.srcs[s], m.roots[s] = &levelSource{t: t, cells: make([]Ref, most)}, []Ref{rootRef}
	}
	for h := 1; h <= H-1; h++ {
		m.entries = max(m.entries, m.bound[h])
		if h < H-1 {
			m.parents = max(m.parents, m.bound[h])
		}
	}
	for _, ls := range m.srcs {
		ls.start = make([]int32, m.parents+1)
	}
	return m
}

// merge lists level h of the union in path order. above[s] holds
// source s's Refs of the level above's entries (NilRef where it lacks
// the cell; m.roots at level 1). It returns each entry's Ref in every
// source (refs[s][i], NilRef where absent) and its point count summed
// over the sources, and runs, whose buffers must fit the level, filled
// with the entries' locs, run offsets and masks. Each source first
// gathers its level-h cells (levelSource.gather); a parent whose
// children all sit in one source (every parent of a lone source's
// level) takes that source's run whole.
func (m *levelMerger) merge(h int, above [][]Ref, runs levelRuns) (refs [][]Ref, cnt []int32, _ levelRuns) {
	srcs, n, parents := m.srcs, m.bound[h], len(above[0])
	refs = make([][]Ref, len(srcs))
	for s, ls := range srcs {
		ls.gather(h, above[s])
		refs[s] = make([]Ref, 0, n)
	}
	cnt = make([]int32, 0, n)
	runs.kids, runs.locs = runs.kids[:parents+1], runs.locs[:0]
	runs.and, runs.or = runs.and[:parents], runs.or[:parents]
	const done = ^uint64(0)
	pos, head := m.pos, m.head
	for p := 0; p < parents; p++ {
		runs.kids[p] = int32(len(cnt))
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
			for s := range refs {
				if s == lone {
					refs[s] = append(refs[s], run...)
					continue
				}
				for range run {
					refs[s] = append(refs[s], NilRef)
				}
			}
			for _, c := range run {
				loc := t.loc[c]
				and, or = and&loc, or|loc
				cnt = append(cnt, t.n[c])
				runs.locs = append(runs.locs, loc)
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
			var sum int32
			for s, ls := range srcs {
				r := NilRef
				if head[s] == loc {
					r = ls.cells[pos[s]]
					sum += ls.t.n[r]
					if pos[s]++; pos[s] < ls.start[p+1] {
						head[s] = ls.t.loc[ls.cells[pos[s]]]
					} else {
						head[s] = done
					}
				}
				refs[s] = append(refs[s], r)
			}
			and, or = and&loc, or|loc
			cnt = append(cnt, sum)
			runs.locs = append(runs.locs, loc)
		}
		runs.and[p], runs.or[p] = and, or
	}
	runs.kids[parents] = int32(len(cnt))
	return refs, cnt, runs
}

// upLink records that entry b is entry a's upper face neighbor along
// the one axis in which their locs differ.
type upLink struct{ a, b int32 }

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
			j := bits.TrailingZeros64(above.locs[p] ^ above.locs[q])
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
				ix.linkPair(a, b)
			}
		}
	}
}

// linkPair adds the counts of entry a and its upper face neighbor b into
// each other's face sums, and the pair into the link list when the
// level keeps one.
func (ix *LevelIndex) linkPair(a, b int) {
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
			ix.linkPair(a, b)
		}
	}
}

// EnsureLevelIndexes returns a fresh index of t alone, the one
// UnionLevelIndexes(t) builds (indexes[h-1] is level h); nothing
// caches it. perfbench is its only caller; a benchmark change moves
// perfbench to UnionLevelIndexes and removes it.
func (t *Tree) EnsureLevelIndexes() []*LevelIndex {
	return buildLevelIndexes([]*Tree{t}, false)
}

// UnionLevelIndexes builds the level indexes of the union of srcs
// (indexes[h-1] is level h): every cell any source stores, in path
// order, with its counts summed over the sources. It is the one index
// build, for one source as for several. The sources must not change
// while the result is in use. Like Union, it refuses sources of
// different geometry or whose points sum past MaxPoints.
func UnionLevelIndexes(srcs ...*Tree) ([]*LevelIndex, error) {
	if err := checkUnion(srcs...); err != nil {
		return nil, err
	}
	return buildLevelIndexes(srcs, false), nil
}

// buildLevelIndexes builds the index of every stored level of the union
// of srcs, top down: level h is merged from level h-1's entries, keeps
// a copy of the merge's locs and run offsets, from which it derives
// each entry's parent, and is linked from level h-1's link list. Only
// the level below reads a level's link list, so unless keepLinks is
// set it is dropped as soon as that level is linked, and the last level
// never records one: at most two levels' lists are alive at once, and
// none outlive the build. One set of run buffers, sized for the largest
// level, serves every level.
func buildLevelIndexes(srcs []*Tree, keepLinks bool) []*LevelIndex {
	H := srcs[0].H
	srcs = slices.Clone(srcs)
	m := newLevelMerger(srcs)
	masks := make([]uint64, 2*m.parents)
	runs := levelRuns{
		kids: make([]int32, m.parents+1),
		locs: make([]uint64, 0, m.entries),
		and:  masks[:m.parents],
		or:   masks[m.parents:],
	}
	idxs := make([]*LevelIndex, H-1)
	above, parRefs := (*LevelIndex)(nil), m.roots
	for h := 1; h <= H-1; h++ {
		var refs [][]Ref
		var cnt []int32
		refs, cnt, runs = m.merge(h, parRefs, runs)
		ix := &LevelIndex{
			Level: h, D: srcs[0].D, srcs: srcs, n: len(cnt), above: above, refs: refs,
			locs: append(make([]uint64, 0, len(cnt)), runs.locs...), cnt: cnt, face: make([]int64, len(cnt)),
		}
		if above != nil {
			ix.kids = append(make([]int32, 0, len(runs.kids)), runs.kids...)
			ix.parent = make([]int32, ix.n)
			for p := 0; p+1 < len(ix.kids); p++ {
				for i := ix.kids[p]; i < ix.kids[p+1]; i++ {
					ix.parent[i] = int32(p)
				}
			}
		}
		ix.linkUpper(above, runs, keepLinks || h < H-1)
		if above != nil && !keepLinks {
			above.up = nil
		}
		idxs[h-1], above, parRefs = ix, ix, refs
	}
	return idxs
}

// levelCellCountsWalk counts every level's stored cells in one linear
// pass over the arena's level column: counts[h] is level h's cell count
// (index 0 unused, length H).
func (t *Tree) levelCellCountsWalk() []int {
	counts := make([]int, t.H)
	for i := 1; i < len(t.level); i++ {
		counts[t.level[i]]++
	}
	return counts
}

// IndexMemoryBytes returns the footprint of a fresh index of t alone,
// which it builds to measure; it is disjoint from the tree's own
// MemoryBytes. perfbench is its only caller; a benchmark change moves
// perfbench to LevelIndex.MemoryBytes and removes it.
func (t *Tree) IndexMemoryBytes() uint64 {
	var total uint64
	for _, ix := range buildLevelIndexes([]*Tree{t}, false) {
		total += ix.MemoryBytes()
	}
	return total
}
