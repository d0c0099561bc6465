// Column export/import: the bridge between the arena storage and the
// on-disk snapshot format (internal/treeio).
//
// A Counting-tree's whole state is six structure-of-arrays columns
// (Loc, N, Used, Level, Parent and the half-space slab P), and a tree
// holds nothing else (arena.go). NewFromColumns assembles a
// written-once tree — exactly the rows it is given (arena.go), in
// canonical order, into which it rewrites rows given in any other
// order once — and, crucially, REVALIDATES every structural invariant
// (parents precede children, level chains, per-axis positions inside
// the dimension mask, no two children of one parent at one position,
// children's counts summing to the parent's count, the half-space counters
// matching the children's positions), so columns read from an
// untrusted file can never assemble into a silently wrong tree: they
// either reproduce a tree some sequence of inserts could have built,
// or they are rejected.
package ctree

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Columns is the complete per-cell state of a Counting-tree as views
// into its arena slabs, row 0 being the root sentinel. Callers must
// not modify the slices (Columns from a live tree alias its arena).
type Columns struct {
	// Loc is the cell's position relative to its parent (bit j = upper
	// half of axis j).
	Loc []uint64
	// N is the cell's point count.
	N []int32
	// Used is the usedCell column format v1 stores. No run reads or
	// writes it (the β-search keeps its own flags), so it is clear in
	// every tree counted from points.
	Used []bool
	// Level is the cell's tree level (0 for the root sentinel).
	Level []uint8
	// Parent is the parent cell's Ref (NilRef for the root sentinel).
	Parent []Ref
	// P is the contiguous half-space slab: row r's d counters live at
	// P[r*d : (r+1)*d].
	P []int32
}

// Rows returns the number of column rows (stored cells plus the root
// sentinel).
func (c Columns) Rows() int { return len(c.Loc) }

// Columns returns the tree's state columns as views into the arena.
// InsertBatch and MergeFrom give the tree a new arena and leave the
// views as they were; callers must not modify them.
func (t *Tree) Columns() Columns {
	return Columns{Loc: t.loc, N: t.n, Used: t.used, Level: t.level, Parent: t.parent, P: t.p}
}

// NewFromColumns assembles a written-once Counting-tree from its state
// columns. The slices are taken over by the tree when their capacities
// equal their lengths and the rows are in canonical order; otherwise
// they are copied into exactly sized slabs, so MemoryBytes is that of
// the cells alone, whatever tree the columns came from.
//
// Every structural invariant is checked and any violation returns an
// error naming it and the rows as given: untrusted columns either
// reproduce a tree that a sequence of inserts could have built, or they
// are refused. The returned tree is in canonical order (arena.go); its
// counts and clustering behavior are exactly those of the tree the
// columns came from.
func NewFromColumns(d, h, eta int, c Columns) (*Tree, error) {
	return adoptCheckedColumns(d, h, eta, c, true)
}

// NewFromColumnsTrusted assembles a written-once Counting-tree from
// state columns that are already known to be structurally sound —
// typically columns whose per-column checksums just verified against a
// snapshot this process (or a trusted peer) wrote. It performs only the
// checks that keep every later use of the tree memory-safe (column
// lengths agree, parents precede children, levels chain, positions fit
// the dimension mask, counts are positive) and skips what dominates
// NewFromColumns: the duplicate-position check and the O(cells·d)
// cross-row pass that re-derives every count and half-space counter
// from the children. Columns that violate the skipped invariants
// assemble into a tree whose counts are wrong in exactly the way the
// columns are — never into out-of-bounds access. Use NewFromColumns
// for untrusted input.
func NewFromColumnsTrusted(d, h, eta int, c Columns) (*Tree, error) {
	return adoptCheckedColumns(d, h, eta, c, false)
}

// adoptCheckedColumns runs the checks both column loaders share — the
// geometry, the column lengths, η, the root sentinel row and every
// row's memory-safety checks (checkRow) — and, with validate, the
// count checks of NewFromColumns (checkCounts). It returns a
// written-once tree holding the columns in canonical order: one scan
// (scanCanonical) tells whether the rows are in it already, and rows
// that are not, such as a snapshot an older release saved from a tree
// it grew batch by batch, are grouped by parent and rewritten once
// (writePreorder). The count checks read that same grouping, before
// the rewrite, so their errors name the rows as given.
func adoptCheckedColumns(d, h, eta int, c Columns, validate bool) (*Tree, error) {
	if d < 1 || d > MaxDims {
		return nil, fmt.Errorf("ctree: dimensionality %d outside [1, %d]", d, MaxDims)
	}
	if h < MinLevels || h > MaxLevels {
		return nil, fmt.Errorf("ctree: H %d outside [%d, %d]", h, MinLevels, MaxLevels)
	}
	rows := len(c.Loc)
	if rows < 1 {
		return nil, fmt.Errorf("ctree: no column rows (the root sentinel is required)")
	}
	if rows-1 > math.MaxInt32 {
		return nil, fmt.Errorf("ctree: %d cells exceed the int32 Ref range", rows-1)
	}
	if len(c.N) != rows || len(c.Used) != rows || len(c.Level) != rows || len(c.Parent) != rows {
		return nil, fmt.Errorf("ctree: column lengths disagree: loc=%d n=%d used=%d level=%d parent=%d",
			rows, len(c.N), len(c.Used), len(c.Level), len(c.Parent))
	}
	if len(c.P) != rows*d {
		return nil, fmt.Errorf("ctree: half-space slab holds %d values, want rows*d = %d", len(c.P), rows*d)
	}
	if eta < 1 || eta > MaxPoints {
		return nil, fmt.Errorf("ctree: point count %d outside [1, %d]", eta, MaxPoints)
	}
	// Root sentinel row: fixed values, never counted.
	if c.Loc[0] != 0 || c.N[0] != 0 || c.Used[0] || c.Level[0] != 0 || c.Parent[0] != NilRef {
		return nil, fmt.Errorf("ctree: row 0 is not the root sentinel")
	}
	t := &Tree{D: d, H: h, Eta: eta, dmask: (uint64(1) << uint(d)) - 1}
	t.adoptColumns(c)
	for r := 1; r < rows; r++ {
		if err := t.checkRow(r); err != nil {
			return nil, err
		}
	}
	ordered := t.scanCanonical()
	if ordered && !validate {
		return t, nil
	}
	kids := t.groupChildren(ordered)
	if validate {
		if err := t.checkCounts(kids); err != nil {
			return nil, err
		}
	}
	if !ordered {
		t.writePreorder(kids)
	}
	return t, nil
}

// scanCanonical reports whether the arena lists the cells in the
// canonical order, in one pass over it. The arena is in DFS preorder
// exactly when each cell's parent is the latest cell of the level
// above, and siblings strictly ascend by Loc exactly when each cell's
// loc is at least next[l]: one past the loc of the latest cell of its
// level, or 0 once a later cell of the level above has started a new
// child run. Both arrays are indexed by the uint8 level, so the loop
// needs no bounds checks on them and branches only on a failure.
func (t *Tree) scanCanonical() bool {
	var last [256]Ref    // last[l]: the latest cell at level l; the root sentinel at 0
	var next [256]uint64 // next[l]: the least loc the next cell at level l may have
	loc := t.loc
	level, parent := t.level[:len(loc)], t.parent[:len(loc)]
	for r := 1; r < len(loc); r++ {
		l, c := level[r], loc[r]
		if parent[r] != last[l-1] || c < next[l] {
			return false
		}
		last[l], next[l], next[l+1] = Ref(r), c+1, 0
	}
	return true
}

// childRuns lists a tree's cells by parent: the children of row p are
// list[end[p-1]:end[p]] (from 0 for the root sentinel), ascending by
// (loc, row).
type childRuns struct {
	list []Ref
	end  []int32
}

// of returns the children of row p.
func (k childRuns) of(p int) []Ref {
	lo := int32(0)
	if p > 0 {
		lo = k.end[p-1]
	}
	return k.list[lo:k.end[p]]
}

// groupChildren lists the cells by parent, each parent's children
// ascending by row: one pass over the parent column counts every
// parent's children, their prefix sums place each run, and a second
// pass fills the runs. Rows in canonical order (ordered) ascend by loc
// within each run already; any other rows have each run sorted by
// (loc, row).
func (t *Tree) groupChildren(ordered bool) childRuns {
	rows := len(t.loc)
	k := childRuns{list: make([]Ref, rows-1), end: make([]int32, rows)}
	for _, par := range t.parent[1:] {
		k.end[par]++
	}
	for par, off := 0, int32(0); par < rows; par++ {
		k.end[par], off = off, off+k.end[par]
	}
	for r := 1; r < rows; r++ {
		par := t.parent[r]
		k.list[k.end[par]] = Ref(r)
		k.end[par]++
	}
	if ordered {
		return k
	}
	loc := t.loc
	for p := 0; p < rows; p++ {
		if run := k.of(p); len(run) > 1 {
			slices.SortFunc(run, func(a, b Ref) int {
				if c := cmp.Compare(loc[a], loc[b]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
		}
	}
	return k
}

// checkCounts runs NewFromColumns' count checks on the rows as given:
// every half-space counter within its cell's count, and, one parent at
// a time over its children (kids): no two share a position, every
// internal cell's children account for exactly its points, and its
// half-space counters equal the children's mass on the lower side of
// each axis (the root sentinel's "count" is η). Level-(H-1) cells have
// no stored children — their half-space counters come from level-H
// parities the tree does not keep — so the bounds check is all that
// can be asserted there.
func (t *Tree) checkCounts(kids childRuns) error {
	d := t.D
	for j := 0; j < d; j++ {
		if t.p[j] != 0 {
			return fmt.Errorf("ctree: root sentinel has a nonzero half-space counter on axis %d", j)
		}
	}
	rows := len(t.loc)
	for r := 1; r < rows; r++ {
		n, row := t.n[r], t.p[r*d:(r+1)*d]
		for j := 0; j < d; j++ {
			if row[j] < 0 || row[j] > n {
				return fmt.Errorf("ctree: cell %d half-space counter %d on axis %d outside [0, %d]", r, row[j], j, n)
			}
		}
	}
	var low [MaxDims]int64
	for par := 0; par < rows; par++ {
		run := kids.of(par)
		if par > 0 && int(t.level[par]) >= t.H-1 {
			continue
		}
		if par > 0 && len(run) == 0 {
			return fmt.Errorf("ctree: internal cell %d at level %d has no children", par, t.level[par])
		}
		var sum int64
		clear(low[:d])
		for i, ch := range run {
			if i > 0 && t.loc[run[i-1]] == t.loc[ch] {
				return fmt.Errorf("ctree: cells %d and %d duplicate position %#x under parent %d", run[i-1], ch, t.loc[ch], par)
			}
			sum += int64(t.n[ch])
			for m := ^t.loc[ch] & t.dmask; m != 0; m &= m - 1 {
				low[bits.TrailingZeros64(m)] += int64(t.n[ch])
			}
		}
		want := int64(t.n[par])
		if par == 0 {
			want = int64(t.Eta)
		}
		if sum != want {
			return fmt.Errorf("ctree: children of cell %d count %d points, want %d", par, sum, want)
		}
		if par > 0 {
			row := t.p[par*d : (par+1)*d]
			for j := 0; j < d; j++ {
				if low[j] != int64(row[j]) {
					return fmt.Errorf("ctree: cell %d half-space counter on axis %d is %d, children place %d points in the lower half",
						par, j, row[j], low[j])
				}
			}
		}
	}
	return nil
}

// writePreorder rewrites the arena in canonical order from its cells
// grouped by parent (kids): the rows in DFS preorder, each parent's
// children in kids' order, a walk down the runs in which a cell goes one
// row past its parent, or past its previous sibling's subtree. The
// fresh columns hold exactly the rows, so the tree stays written-once.
func (t *Tree) writePreorder(kids childRuns) {
	d, rows := t.D, len(t.loc)
	c := Columns{
		Loc:    make([]uint64, rows),
		N:      make([]int32, rows),
		Used:   make([]bool, rows),
		Level:  make([]uint8, rows),
		Parent: make([]Ref, rows),
		P:      make([]int32, rows*d),
	}
	c.Parent[0] = NilRef
	// next[h] and end[h] bound the level-h cells of kids.list being
	// written, the children of row par[h] (the root sentinel at level 1).
	var next, end [MaxLevels]int32
	var par [MaxLevels]Ref
	end[1] = kids.end[0]
	row := 1
	for h := 1; h > 0; {
		if next[h] == end[h] {
			h--
			continue
		}
		r := int(kids.list[next[h]])
		next[h]++
		c.Loc[row], c.N[row], c.Used[row], c.Level[row], c.Parent[row] = t.loc[r], t.n[r], t.used[r], uint8(h), par[h]
		copy(c.P[row*d:row*d+d], t.p[r*d:r*d+d])
		if h+1 < t.H {
			next[h+1], end[h+1], par[h+1] = kids.end[r-1], kids.end[r], Ref(row)
			h++
		}
		row++
	}
	t.adoptColumns(c)
}

// checkRow runs the per-row checks that keep every use of the tree
// memory-safe: row r's parent precedes it, its level chains from the
// parent's and stays above H, its position fits the dimension mask,
// and it counts at least one point.
func (t *Tree) checkRow(r int) error {
	par := t.parent[r]
	if par < 0 || int(par) >= r {
		return fmt.Errorf("ctree: cell %d has parent ref %d outside [0, %d)", r, par, r)
	}
	if int(t.level[r]) != int(t.level[par])+1 {
		return fmt.Errorf("ctree: cell %d at level %d under a level-%d parent", r, t.level[r], t.level[par])
	}
	if int(t.level[r]) > t.H-1 {
		return fmt.Errorf("ctree: cell %d at level %d, deeper than the stored maximum %d", r, t.level[r], t.H-1)
	}
	if t.loc[r]&^t.dmask != 0 {
		return fmt.Errorf("ctree: cell %d has position bits beyond axis %d", r, t.D-1)
	}
	if t.n[r] < 1 {
		return fmt.Errorf("ctree: cell %d stores a non-positive count %d (empty cells are never stored)", r, t.n[r])
	}
	return nil
}

// adoptColumns installs the state columns into the tree, replacing its
// whole arena: each slice is taken over when its capacity equals its
// length and copied into an exactly sized slab otherwise, so the tree
// ends written-once.
func (t *Tree) adoptColumns(c Columns) {
	t.loc, t.n, t.used, t.level = fit(c.Loc), fit(c.N), fit(c.Used), fit(c.Level)
	t.parent, t.p = fit(c.Parent), fit(c.P)
}

// fit returns s when its capacity is its length, and an exact copy
// otherwise.
func fit[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return exact(s)
}

// Equal reports whether two trees store exactly the same cells with
// the same counts, half-space counters and usedCell flags (a serial
// build, a sharded merge, an external spill-and-merge build, a tree fed
// by InsertBatch and a snapshot load of the same dataset are all
// Equal). Every tree lists
// its cells in canonical order, so two trees store the same cells
// exactly when their columns are equal.
func Equal(a, b *Tree) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.D != b.D || a.H != b.H || a.Eta != b.Eta {
		return false
	}
	return slices.Equal(a.loc, b.loc) && slices.Equal(a.n, b.n) && slices.Equal(a.used, b.used) &&
		slices.Equal(a.level, b.level) && slices.Equal(a.parent, b.parent) && slices.Equal(a.p, b.p)
}
