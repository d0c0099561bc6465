// Arena-backed, pointer-free storage of the Counting-tree.
//
// Instead of one heap object per cell (*Cell with its own P slab, plus
// a *Node and a map[uint64]int32 per refined cell — the pre-arena
// layout), every tree owns a handful of structure-of-arrays slabs:
// per-cell columns (Loc, N, Used, level, parent/child/sibling links,
// child-table slot) that share one capacity, and ONE contiguous
// half-space slab holding every cell's d int32 counters at stride d.
// The capacity is ArenaCapFor(rows), the smallest power-of-two multiple
// of 64 rows that holds the cells: Build and Union count their cells
// first and allocate it once, while InsertBatch doubles it as it
// goes. Cells are addressed by int32 arena offsets (Ref), so
// insert, merge and the level-index build walk flat arrays instead of
// chasing pointers across the heap, the GC sees a constant number of
// objects regardless of η, and the memory accounting is an exact O(1)
// sum of slab capacities.
//
// Children of one parent form a singly linked list in ascending Ref
// order (firstChild/lastChild/nextSib columns): ascending by Loc in a
// tree Build or Union wrote, in first-touch order in one grown by
// InsertBatch. Small nodes (≤ inlineChildren children) are resolved by
// scanning that list; a node that grows past the threshold gets an
// open-addressing table keyed by the child's Loc (hashLoc). Table sizes
// are a pure function of the child count (power of two, load ≤ ½), so
// two trees storing the same cells have byte-identical accounting no
// matter how they were built — the property the serial/parallel
// MemoryBytes equality tests pin.
//
// Ref 0 is the root sentinel: a pseudo-cell whose children are the
// level-1 cells. It is never counted, walked or returned by lookups.
package ctree

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Ref addresses one stored cell inside its tree's arena. Refs are only
// meaningful together with the Tree that issued them; inserts keep them
// valid (arena slabs grow, but offsets never move), while MergeFrom
// rewrites the arena and voids them. The zero Ref is the root sentinel,
// which no lookup returns.
type Ref int32

// NilRef is the "no such cell" sentinel returned by lookups.
const NilRef Ref = -1

// rootRef is the arena offset of the root pseudo-cell.
const rootRef Ref = 0

// inlineChildren is the child count up to which a node resolves Loc
// lookups by scanning its sibling chain; past it, the node gets an
// open-addressing child table. Eight keeps the common deep-level nodes
// (a handful of children each) table-free while the root and the
// large level-1 fan-outs probe in O(1).
const inlineChildren = 8

// arenaInitialCap is the smallest arena capacity, that of an empty
// tree from New. Growth doubles, so the final capacity — and with it
// the exact memory accounting — depends only on the final cell count.
const arenaInitialCap = 64

// Tree is the Counting-tree over a normalized dataset, stored as an
// arena of structure-of-arrays columns (see the package comment of
// this file for the layout).
type Tree struct {
	// D is the dataset dimensionality.
	D int
	// H is the number of resolutions; levels 1..H-1 are stored.
	H int
	// Eta is the number of points counted into the tree.
	Eta int

	// Per-cell columns, indexed by Ref. Index 0 is the root sentinel.
	loc        []uint64 // position relative to the parent (bit j = upper half of axis j)
	n          []int32  // point count
	used       []bool   // usedCell flag consumed by the clustering phase
	level      []uint8  // tree level (0 for the root sentinel)
	parent     []Ref    // parent cell (rootRef for level-1 cells)
	firstChild []Ref    // head of the child chain, NilRef when none
	lastChild  []Ref    // tail of the child chain (O(1) first-touch append)
	nextSib    []Ref    // next cell in the parent's child chain
	childCount []int32  // number of children
	childTab   []int32  // index into tabs, or -1 while the node is inline

	// p is the contiguous half-space slab: cell r's counters live at
	// p[r*D : (r+1)*D]. P[j] counts the cell's points in the lower half
	// along axis j (at the next level's granularity).
	p []int32

	// tabs holds the open-addressing child tables of large nodes:
	// tabs[childTab[r]][slot] is a child Ref or NilRef. tabBytes tracks
	// their live size for the O(1) exact accounting.
	tabs     [][]Ref
	tabBytes uint64

	// dmask has bit j set for every axis 0 <= j < D.
	dmask uint64

	// grows counts arena growth events (column reallocation), runs and
	// runPoints the sorted-batch insertion runs (see batch.go); a Union
	// sums its trees' counters, so a merged tree reports build-wide
	// totals for the observability layer.
	grows       int64
	runs        int64
	runPoints   int64
	radixChunks int64 // record streams sorted by the LSD radix kernels (radix.go)

	// spillRuns/spillBytes record a spilled build's disk traffic
	// (spill.go): sorted runs spilled and bytes written. Zero for
	// in-memory builds and loaded snapshots.
	spillRuns  int64
	spillBytes int64

	// canon caches canonical()'s verdict (canonUnknown, canonYes or
	// canonNo): set by the first scan, reset by invalidateIndexes with
	// the level indexes, which every change to the cell set drops. It
	// is atomic because concurrent readers of an unchanging tree (a
	// pass's index build and a snapshot's Union over one aging tree)
	// may both record it.
	canon atomic.Int32

	// spread is the packed-key spread table of the tree's (d, H)
	// (batch.go): the one its Build sorted with, or made by its first
	// InsertBatch; nil before that and for multi-word keys.
	spread keySpread

	// idxMu guards the lazily built level indexes (levelindex.go);
	// indexes[h-1] is the flat snapshot of level h, nil until
	// EnsureLevelIndexes runs, invalidated by InsertBatch and MergeFrom.
	idxMu   sync.Mutex
	indexes []*LevelIndex
}

// New returns an empty Counting-tree for d-dimensional data with H
// resolutions. It does not validate its arguments — Build does, and
// tests construct degenerate trees deliberately.
func New(d, h int) *Tree { return newTree(d, h, 1) }

// newTree returns an empty tree whose arena holds rows rows, the root
// sentinel's included, without growing: its columns are allocated once
// at ArenaCapFor(rows), which counts as no growth.
func newTree(d, h, rows int) *Tree {
	t := &Tree{D: d, H: h, dmask: (uint64(1) << uint(d)) - 1}
	t.growTo(rows)
	// Root sentinel at Ref 0.
	t.pushCell(NilRef, 0, 0)
	return t
}

// growTo reallocates every column to at least need cells (doubling, so
// the final capacity is a pure function of the final cell count).
func (t *Tree) growTo(need int) {
	newCap := cap(t.loc)
	if newCap == 0 {
		newCap = arenaInitialCap
	}
	for newCap < need {
		newCap *= 2
	}
	if newCap == cap(t.loc) && t.loc != nil {
		return
	}
	if t.loc != nil {
		t.grows++
	}
	grow := func(dst *[]Ref) {
		s := make([]Ref, len(*dst), newCap)
		copy(s, *dst)
		*dst = s
	}
	loc := make([]uint64, len(t.loc), newCap)
	copy(loc, t.loc)
	t.loc = loc
	n := make([]int32, len(t.n), newCap)
	copy(n, t.n)
	t.n = n
	used := make([]bool, len(t.used), newCap)
	copy(used, t.used)
	t.used = used
	level := make([]uint8, len(t.level), newCap)
	copy(level, t.level)
	t.level = level
	grow(&t.parent)
	grow(&t.firstChild)
	grow(&t.lastChild)
	grow(&t.nextSib)
	cc := make([]int32, len(t.childCount), newCap)
	copy(cc, t.childCount)
	t.childCount = cc
	ct := make([]int32, len(t.childTab), newCap)
	copy(ct, t.childTab)
	t.childTab = ct
	p := make([]int32, len(t.p), newCap*t.D)
	copy(p, t.p)
	t.p = p
}

// pushCell appends one cell to the arena columns and returns its Ref.
// It does not link the cell into its parent's child chain (ensureChild
// does, or link for a whole arena).
func (t *Tree) pushCell(parent Ref, loc uint64, lvl uint8) Ref {
	if len(t.loc) == cap(t.loc) {
		t.growTo(len(t.loc) + 1)
	}
	r := Ref(len(t.loc))
	t.loc = append(t.loc, loc)
	t.n = append(t.n, 0)
	t.used = append(t.used, false)
	t.level = append(t.level, lvl)
	t.parent = append(t.parent, parent)
	t.firstChild = append(t.firstChild, NilRef)
	t.lastChild = append(t.lastChild, NilRef)
	t.nextSib = append(t.nextSib, NilRef)
	t.childCount = append(t.childCount, 0)
	t.childTab = append(t.childTab, -1)
	t.p = append(t.p, make([]int32, t.D)...)
	return r
}

// hashLoc mixes one Loc word into a probe index with the 64-bit
// murmur3 finalizer (fmix64): two multiplies and three xor-shifts
// instead of the byte-at-a-time FNV-1a loop it replaces — ~8× fewer
// multiplies on the child-table probe that sits inside every tree
// descent (insertion, CellAt). Safe to change at will:
// child tables are rebuilt from the sibling chains, never persisted
// (treeio serializes cells, not tables), and open addressing returns
// the unique matching Loc whatever the probe order. The child tables
// are the tree's only hash; the level indexes need no child lookup, as
// they find face neighbors by merge walks over sibling runs sorted by
// loc (linkUpper, levelindex.go).
func hashLoc(w uint64) uint64 {
	w ^= w >> 33
	w *= 0xff51afd7ed558ccd
	w ^= w >> 33
	w *= 0xc4ceb9fe1a85ec53
	w ^= w >> 33
	return w
}

// findChild returns the child of par with the given relative position,
// or NilRef. Large nodes probe their open-addressing table; small ones
// scan the sibling chain.
func (t *Tree) findChild(par Ref, loc uint64) Ref {
	if tb := t.childTab[par]; tb >= 0 {
		tab := t.tabs[tb]
		mask := uint64(len(tab) - 1)
		slot := hashLoc(loc) & mask
		for {
			r := tab[slot]
			if r < 0 {
				return NilRef
			}
			if t.loc[r] == loc {
				return r
			}
			slot = (slot + 1) & mask
		}
	}
	for r := t.firstChild[par]; r >= 0; r = t.nextSib[r] {
		if t.loc[r] == loc {
			return r
		}
	}
	return NilRef
}

// ensureChild returns the child of par at loc, creating and linking it
// when absent. created reports whether a new cell was stored.
func (t *Tree) ensureChild(par Ref, loc uint64) (Ref, bool) {
	if r := t.findChild(par, loc); r >= 0 {
		return r, false
	}
	r := t.pushCell(par, loc, t.level[par]+1)
	t.linkChild(par, r)
	return r, true
}

// linkChild appends the freshly stored cell r to par's child chain and
// keeps the child-resolution structures (inline chain or table) in
// step. The caller guarantees par has no child with r's Loc yet.
func (t *Tree) linkChild(par, r Ref) {
	t.chainChild(par, r)
	if tb := t.childTab[par]; tb >= 0 {
		t.tabInsert(par, int(tb), r)
	} else if int(t.childCount[par]) > inlineChildren {
		t.buildTab(par)
	}
}

// chainChild appends r to the tail of par's child chain and counts it.
func (t *Tree) chainChild(par, r Ref) {
	if t.lastChild[par] < 0 {
		t.firstChild[par] = r
	} else {
		t.nextSib[t.lastChild[par]] = r
	}
	t.lastChild[par] = r
	t.childCount[par]++
}

// link rebuilds every child chain from the parent column (parents
// precede their children), in ascending Ref order, then gives each node
// with more than inlineChildren children its child table once, at its
// final size.
func (t *Tree) link() {
	for r := 1; r < len(t.loc); r++ {
		t.chainChild(t.parent[r], Ref(r))
	}
	for r, n := range t.childCount {
		if n > inlineChildren {
			t.buildTab(Ref(r))
		}
	}
}

// tableSize returns the power-of-two open-addressing table size for n
// children (load factor <= 0.5).
func tableSize(n int) uint64 {
	size := uint64(8)
	for size < uint64(n)*2 {
		size <<= 1
	}
	return size
}

// buildTab promotes an inline node to an open-addressing child table,
// sized by tableSize so the layout depends only on the child count.
func (t *Tree) buildTab(par Ref) {
	size := tableSize(int(t.childCount[par]))
	tab := make([]Ref, size)
	for i := range tab {
		tab[i] = NilRef
	}
	tb := len(t.tabs)
	t.tabs = append(t.tabs, tab)
	t.childTab[par] = int32(tb)
	t.tabBytes += uint64(size) * uint64(unsafe.Sizeof(NilRef))
	for r := t.firstChild[par]; r >= 0; r = t.nextSib[r] {
		t.tabPut(tab, r)
	}
}

// tabInsert adds a freshly created child to par's table, doubling the
// table first when the insertion would push the load factor past ½.
func (t *Tree) tabInsert(par Ref, tb int, r Ref) {
	tab := t.tabs[tb]
	if uint64(t.childCount[par])*2 > uint64(len(tab)) {
		size := tableSize(int(t.childCount[par]))
		bigger := make([]Ref, size)
		for i := range bigger {
			bigger[i] = NilRef
		}
		for _, c := range tab {
			if c >= 0 {
				t.tabPut(bigger, c)
			}
		}
		t.tabBytes += uint64(size-uint64(len(tab))) * uint64(unsafe.Sizeof(NilRef))
		t.tabs[tb] = bigger
		tab = bigger
	}
	t.tabPut(tab, r)
}

// tabPut inserts r into tab by the hashLoc probe of its Loc. The caller
// guarantees the Loc is not yet present and the table has a free slot.
func (t *Tree) tabPut(tab []Ref, r Ref) {
	mask := uint64(len(tab) - 1)
	slot := hashLoc(t.loc[r]) & mask
	for tab[slot] >= 0 {
		slot = (slot + 1) & mask
	}
	tab[slot] = r
}

// N returns the point count of the cell at r.
func (t *Tree) N(r Ref) int32 { return t.n[r] }

// P returns the cell's half-space count along axis j: the number of
// its points in the lower half of axis j (at the next level's
// granularity).
func (t *Tree) P(r Ref, j int) int32 { return t.p[int(r)*t.D+j] }

// PRow returns the cell's d half-space counters as a view into the
// arena slab. Callers must not modify it.
func (t *Tree) PRow(r Ref) []int32 {
	d := t.D
	return t.p[int(r)*d : int(r)*d+d : int(r)*d+d]
}

// Used reports the cell's usedCell flag.
func (t *Tree) Used(r Ref) bool { return t.used[r] }

// SetUsed sets the cell's usedCell flag. The clustering phase marks
// the winning cell of each scan pass this way.
func (t *Tree) SetUsed(r Ref, used bool) { t.used[r] = used }

// CellCount returns the number of stored cells across all levels (the
// root sentinel is not a cell).
func (t *Tree) CellCount() int64 { return int64(len(t.loc)) - 1 }

// ResetUsed clears every usedCell flag, the tree's and its cached
// level indexes', allowing the clustering phase to run again over the
// same tree.
func (t *Tree) ResetUsed() {
	clear(t.used)
	t.idxMu.Lock()
	for _, ix := range t.indexes {
		clear(ix.used)
	}
	t.idxMu.Unlock()
}

// MemoryBytes returns the EXACT heap footprint of the tree's arena in
// O(1): the sum of every column's capacity, the half-space slab, and
// the child tables. It does NOT include the flat level indexes —
// IndexMemoryBytes accounts for those separately, so the two can be
// summed without double counting (the memory-limit check does).
// Because capacities and table sizes are pure functions of the cell
// set, two trees storing the same cells report identical footprints
// regardless of how they were built.
func (t *Tree) MemoryBytes() uint64 {
	return arenaBytes(t.D, cap(t.loc)) + uint64(cap(t.tabs))*uint64(unsafe.Sizeof([]Ref(nil))) + t.tabBytes
}

// arenaBytes is the footprint of a tree's header, its per-cell columns
// and its half-space slab at a capacity of capRows rows, which every
// column shares: what MemoryBytes counts for a tree without child
// tables.
func arenaBytes(d, capRows int) uint64 {
	row := unsafe.Sizeof(uint64(0)) + // loc
		unsafe.Sizeof(int32(0)) + // n
		unsafe.Sizeof(false) + // used
		unsafe.Sizeof(uint8(0)) + // level
		4*unsafe.Sizeof(NilRef) + // parent, firstChild, lastChild, nextSib
		2*unsafe.Sizeof(int32(0)) + // childCount, childTab
		uintptr(d)*unsafe.Sizeof(int32(0)) // p
	return uint64(unsafe.Sizeof(Tree{})) + uint64(capRows)*uint64(row)
}

// ArenaGrows returns the number of arena growth events (column
// reallocation), accumulated across merged shards. An in-memory Build
// and a Union allocate their arena once, at its final size, and grow
// it zero times.
func (t *Tree) ArenaGrows() int64 { return t.grows }

// SpillStats returns a spilled build's disk-traffic statistics:
// the number of sorted runs spilled and the bytes written to the
// spill files. Both are zero for trees built in memory or loaded from
// a snapshot.
func (t *Tree) SpillStats() (runs, bytes int64) { return t.spillRuns, t.spillBytes }

// BatchRuns returns the count loop's statistics (batch.go): runs is
// the number of carry-over descents, one per group of consecutive
// path-sorted points sharing one stored leaf path, and points the
// points those descents covered, so points/runs is the mean run length
// one descent amortizes over. A group is split only where one Build or
// InsertBatch call ends and after every buildReportEvery points of one
// path. Both accumulate across calls and across a Union's trees.
func (t *Tree) BatchRuns() (runs, points int64) { return t.runs, t.runPoints }

// RadixChunks returns how many record streams were ordered by the LSD
// radix kernels (radix.go) during this tree's build — one per Build
// sort worker or spilled run, one per InsertBatch call; zero when
// every stream took the multi-word comparison-sort fallback or the
// tree was built per-point. A Union sums its trees' counts, like the
// other build counters.
func (t *Tree) RadixChunks() int64 { return t.radixChunks }

// popcountLower increments row[j] for every axis j whose bit is CLEAR
// in loc (masked to d axes): the half-space update of one point whose
// next-level position is loc.
func popcountLower(row []int32, loc, dmask uint64) {
	for m := ^loc & dmask; m != 0; m &= m - 1 {
		row[bits.TrailingZeros64(m)]++
	}
}
