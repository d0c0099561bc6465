// Arena-backed, pointer-free storage of the Counting-tree.
//
// Instead of one heap object per cell (*Cell with its own P slab, plus
// a *Node and a map[uint64]int32 per refined cell — the pre-arena
// layout), every tree owns the six columns snapshot format v1 saves:
// the state columns (Loc, N, Used, level, parent), which share one
// capacity, and ONE contiguous half-space slab holding every cell's d
// int32 counters at stride d. Cells are addressed by int32
// arena offsets (Ref), so builds, unions and the level-index build walk
// flat arrays instead of chasing pointers across the heap, the GC sees
// a constant number of objects regardless of η, and the memory
// accounting is an exact O(1) sum of slab capacities.
//
// Every tree is written once. Build, InsertBatch, Union, MergeFrom, the
// column loaders and Clone each produce a tree that holds exactly its
// cells plus the root sentinel and nothing else: the paper's
// Counting-tree keeps n, P and usedCell per cell, and a tree is the
// columns it saves. No tree carries child links or child counts: the
// canonical order groups each parent's children in one run, which the
// readers that need it derive where they read it (the level merge's
// gather from the level column, the loader's groupChildren from the
// parent column). Nor does a tree carry build
// counters: Build reports them to its caller's collector. No tree is
// counted into once it holds cells:
// Runs.Add and InsertBatch Build their batch into a fresh tree and
// unite it with the older ones. Nor does a run write a tree: the
// β-search keeps its usedCell flags itself (internal/core), and the
// Used column stays only because snapshot format v1 stores it, so it
// holds what a loaded snapshot held (the union of its sources' flags
// after a Union) and is clear in every tree counted from points.
// Only a spilled build, which cannot count its cells ahead, grows its
// arena, doubling from arenaInitialCap rows, and trims it once its
// merge ends.
//
// Every tree lists its cells in the canonical order, the DFS preorder
// with each parent's children ascending by loc: every writer emits it,
// and the column loaders rewrite rows given in any other order into it
// once (snapshot.go), as a snapshot that an older release saved from a
// tree it grew batch by batch lists them in first-touch order. The
// readers that depend on the order (CellAt, the level-index fill,
// Equal) therefore have one path.
//
// Ref 0 is the root sentinel: a pseudo-cell whose children are the
// level-1 cells. It is never counted, walked or returned by lookups.
package ctree

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Ref addresses one stored cell inside its tree's arena. Refs are only
// meaningful together with the Tree that issued them; InsertBatch and
// MergeFrom rewrite the arena and void them. The zero Ref is the root
// sentinel, which no lookup returns.
type Ref int32

// NilRef is the "no such cell" sentinel returned by lookups.
const NilRef Ref = -1

// rootRef is the arena offset of the root pseudo-cell.
const rootRef Ref = 0

// arenaInitialCap is the smallest capacity a growing arena takes: the
// first cell a spilled build counts into its tree from New allocates
// it, and growth doubles from there.
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

	// State columns, indexed by Ref. Index 0 is the root sentinel.
	loc    []uint64 // position relative to the parent (bit j = upper half of axis j)
	n      []int32  // point count
	used   []bool   // the usedCell column snapshot format v1 stores; no run reads or writes it
	level  []uint8  // tree level (0 for the root sentinel)
	parent []Ref    // parent cell (rootRef for level-1 cells)

	// p is the contiguous half-space slab: cell r's counters live at
	// p[r*D : (r+1)*D]. P[j] counts the cell's points in the lower half
	// along axis j (at the next level's granularity).
	p []int32

	// dmask has bit j set for every axis 0 <= j < D.
	dmask uint64

	// idxMu guards the lazily built level indexes (levelindex.go);
	// indexes[h-1] is the flat snapshot of level h, nil until
	// EnsureLevelIndexes runs, dropped when InsertBatch or MergeFrom
	// rewrites the arena.
	idxMu   sync.Mutex
	indexes []*LevelIndex
}

// New returns an empty Counting-tree for d-dimensional data with H
// resolutions, holding the root sentinel alone. It does not validate
// its arguments — Build does, and tests construct degenerate trees
// deliberately. The facade's NewTree starts its run list from one;
// perfbench's stream replay, its only other caller, grows one by
// Tree.InsertBatch, and a benchmark change moves the replay to Runs.
func New(d, h int) *Tree { return newTree(d, h, 1) }

// newTree returns an empty tree whose columns hold exactly rows rows,
// the root sentinel's included: counting cells into it until it holds
// rows rows never grows the arena. The root alone is in canonical
// order, and a count appends cells in path order (countMerged).
func newTree(d, h, rows int) *Tree {
	t := &Tree{
		D: d, H: h, dmask: (uint64(1) << uint(d)) - 1,
		loc:    make([]uint64, 0, rows),
		n:      make([]int32, 0, rows),
		used:   make([]bool, 0, rows),
		level:  make([]uint8, 0, rows),
		parent: make([]Ref, 0, rows),
		p:      make([]int32, 0, rows*d),
	}
	// Root sentinel at Ref 0.
	t.pushCell(NilRef, 0, 0)
	return t
}

// growTo reallocates every column to at least need rows, doubling from
// the current capacity (arenaInitialCap at least).
func (t *Tree) growTo(need int) {
	newCap := max(cap(t.loc), arenaInitialCap)
	for newCap < need {
		newCap *= 2
	}
	if newCap == cap(t.loc) {
		return
	}
	t.loc = regrow(t.loc, newCap)
	t.n = regrow(t.n, newCap)
	t.used = regrow(t.used, newCap)
	t.level = regrow(t.level, newCap)
	t.parent = regrow(t.parent, newCap)
	t.p = regrow(t.p, newCap*t.D)
}

// regrow returns a copy of s with capacity c.
func regrow[T any](s []T, c int) []T {
	g := make([]T, len(s), c)
	copy(g, s)
	return g
}

// exact returns a copy of s whose capacity is its length.
func exact[T any](s []T) []T { return regrow(s, len(s)) }

// pushCell appends one cell under parent to the arena columns, growing
// them when they are full, and returns its Ref.
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
	t.p = append(t.p, make([]int32, t.D)...)
	return r
}

// trim reallocates the state columns of a tree that has stopped
// growing to exactly its rows: a spilled build, which cannot count its
// cells ahead, ends written-once this way.
func (t *Tree) trim() {
	if cap(t.loc) == len(t.loc) {
		return
	}
	t.loc, t.n, t.used, t.level = exact(t.loc), exact(t.n), exact(t.used), exact(t.level)
	t.parent, t.p = exact(t.parent), exact(t.p)
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

// Used reports the cell's flag in the usedCell column snapshot format
// v1 stores. No run reads or writes it: the β-search keeps its own
// flags.
func (t *Tree) Used(r Ref) bool { return t.used[r] }

// CellCount returns the number of stored cells across all levels (the
// root sentinel is not a cell).
func (t *Tree) CellCount() int64 { return int64(len(t.loc)) - 1 }

// MemoryBytes returns the EXACT heap footprint of the tree's arena in
// O(1): the state columns and the half-space slab at their shared
// capacity, stateBytes(D, cells+1) once a tree is written — its header
// plus exactly the column bytes a snapshot of it holds. It does NOT
// include the flat level indexes — IndexMemoryBytes accounts for those
// separately, so the two can be summed without double counting (the
// memory-limit check does). Two trees storing the same cells report
// identical footprints however they were built.
func (t *Tree) MemoryBytes() uint64 { return stateBytes(t.D, cap(t.loc)) }

// stateBytes is the footprint of a tree's header, its state columns and
// its half-space slab at a capacity of rows rows.
func stateBytes(d, rows int) uint64 {
	row := unsafe.Sizeof(uint64(0)) + // loc
		unsafe.Sizeof(int32(0)) + // n
		unsafe.Sizeof(false) + // used
		unsafe.Sizeof(uint8(0)) + // level
		unsafe.Sizeof(NilRef) + // parent
		uintptr(d)*unsafe.Sizeof(int32(0)) // p
	return uint64(unsafe.Sizeof(Tree{})) + uint64(rows)*uint64(row)
}

// popcountLower increments row[j] for every axis j whose bit is CLEAR
// in loc (masked to d axes): the half-space update of one point whose
// next-level position is loc.
func popcountLower(row []int32, loc, dmask uint64) {
	for m := ^loc & dmask; m != 0; m &= m - 1 {
		row[bits.TrailingZeros64(m)]++
	}
}
