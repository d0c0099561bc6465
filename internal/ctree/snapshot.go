// Column export/import: the bridge between the arena storage and the
// on-disk snapshot format (internal/treeio).
//
// A Counting-tree's whole state is six structure-of-arrays columns
// (Loc, N, Used, Level, Parent and the half-space slab P) — the
// linkage columns (child chains, child tables) are derivable, because
// ensureChild appends children at the chain tail and cells are stored
// in creation order, so every parent's child chain is exactly its
// children in ascending Ref order. NewFromColumns rebuilds them in one
// linear pass and, crucially, REVALIDATES every structural invariant
// (parents precede children, level chains, per-axis positions inside
// the dimension mask, child counts summing to the parent's count, the
// half-space counters matching the children's positions), so columns
// read from an untrusted file can never assemble into a silently wrong
// tree: they either reproduce a tree some sequence of inserts could
// have built, or they are rejected.
package ctree

import (
	"fmt"
	"math"
	"math/bits"
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
	// Used is the usedCell flag consumed by the clustering phase.
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
// The views stay valid until the next Insert/MergeFrom; callers must
// not modify them.
func (t *Tree) Columns() Columns {
	return Columns{Loc: t.loc, N: t.n, Used: t.used, Level: t.level, Parent: t.parent, P: t.p}
}

// ArenaCapFor returns the arena column capacity a tree with the given
// number of rows (cells + root sentinel) has: the doubling growth
// policy makes it a pure function of the row count, which is what
// keeps MemoryBytes identical across build orders — and across a
// save/load round trip, when the loader allocates columns at exactly
// this capacity (treeio does).
func ArenaCapFor(rows int) int {
	c := arenaInitialCap
	for c < rows {
		c *= 2
	}
	return c
}

// NewFromColumns assembles a Counting-tree from its state columns,
// rebuilding the derived linkage (child chains and child tables) in
// one linear pass. The slices are taken over by the tree when their
// capacities match the canonical arena sizing (ArenaCapFor for the
// per-cell columns, ArenaCapFor·d for P); otherwise they are copied
// into canonically sized slabs so MemoryBytes stays a pure function of
// the cell set.
//
// Every structural invariant is checked and any violation returns an
// error naming it: untrusted columns either reproduce a tree that a
// sequence of inserts could have built, or they are refused. The
// returned tree reports zero build statistics (ArenaGrows, BatchRuns);
// its counts, footprint and clustering behavior are exactly those of
// the tree the columns came from.
func NewFromColumns(d, h, eta int, c Columns) (*Tree, error) {
	t, err := adoptCheckedColumns(d, h, eta, c)
	if err != nil {
		return nil, err
	}
	for j := 0; j < d; j++ {
		if t.p[j] != 0 {
			return nil, fmt.Errorf("ctree: root sentinel has a nonzero half-space counter on axis %d", j)
		}
	}
	// Per-row invariants + linkage rebuild. Parents precede children in
	// Ref order and children chain in creation (= ascending Ref) order,
	// so one forward pass re-links every cell; findChild before linking
	// rejects duplicate (parent, loc) rows, which a blind relink would
	// silently merge.
	rows := len(t.loc)
	for r := 1; r < rows; r++ {
		if err := t.checkRow(r); err != nil {
			return nil, err
		}
		n, row := t.n[r], t.p[r*d:(r+1)*d]
		for j := 0; j < d; j++ {
			if row[j] < 0 || row[j] > n {
				return nil, fmt.Errorf("ctree: cell %d half-space counter %d on axis %d outside [0, %d]", r, row[j], j, n)
			}
		}
		par := t.parent[r]
		if t.findChild(par, t.loc[r]) >= 0 {
			return nil, fmt.Errorf("ctree: cells %d and %d duplicate position %#x under parent %d", t.findChild(par, t.loc[r]), r, t.loc[r], par)
		}
		t.linkChild(par, Ref(r))
	}
	// Cross-row consistency: every internal cell's children must account
	// for exactly its points, and its half-space counters must equal the
	// children's mass on the lower side of each axis (the root sentinel's
	// "count" is η). Level-(H-1) cells have no stored children — their
	// half-space counters come from level-H parities the tree does not
	// keep — so the bounds check above is all that can be asserted there.
	var low [MaxDims]int64
	for par := 0; par < rows; par++ {
		if int(t.level[par]) >= h-1 || (par > 0 && t.firstChild[par] < 0) {
			if par > 0 && int(t.level[par]) < h-1 {
				return nil, fmt.Errorf("ctree: internal cell %d at level %d has no children", par, t.level[par])
			}
			continue
		}
		var sum int64
		for j := 0; j < d; j++ {
			low[j] = 0
		}
		for ch := t.firstChild[par]; ch >= 0; ch = t.nextSib[ch] {
			sum += int64(t.n[ch])
			for m := ^t.loc[ch] & t.dmask; m != 0; m &= m - 1 {
				low[bits.TrailingZeros64(m)] += int64(t.n[ch])
			}
		}
		want := int64(t.n[par])
		if par == 0 {
			want = int64(eta)
		}
		if sum != want {
			return nil, fmt.Errorf("ctree: children of cell %d count %d points, want %d", par, sum, want)
		}
		if par > 0 {
			row := t.p[par*d : (par+1)*d]
			for j := 0; j < d; j++ {
				if low[j] != int64(row[j]) {
					return nil, fmt.Errorf("ctree: cell %d half-space counter on axis %d is %d, children place %d points in the lower half",
						par, j, row[j], low[j])
				}
			}
		}
	}
	return t, nil
}

// NewFromColumnsTrusted assembles a Counting-tree from state columns
// that are already known to be structurally sound — typically columns
// whose per-column checksums just verified against a snapshot this
// process (or a trusted peer) wrote. It performs only the checks that
// keep the linkage rebuild memory-safe (column lengths agree, parents
// precede children, levels chain, positions fit the dimension mask,
// counts are positive) and skips what dominates NewFromColumns: the
// per-row duplicate-child probe and the O(cells·d) cross-row pass that
// re-derives every count and half-space counter from the children.
// Columns that violate the skipped invariants assemble into a tree
// whose counts are wrong in exactly the way the columns are — never
// into out-of-bounds access. Use NewFromColumns for untrusted input.
func NewFromColumnsTrusted(d, h, eta int, c Columns) (*Tree, error) {
	t, err := adoptCheckedColumns(d, h, eta, c)
	if err != nil {
		return nil, err
	}
	for r := 1; r < len(t.loc); r++ {
		if err := t.checkRow(r); err != nil {
			return nil, err
		}
	}
	t.link()
	return t, nil
}

// adoptCheckedColumns runs the checks both column loaders share — the
// geometry, the column lengths, η and the root sentinel row — and
// returns an unlinked tree holding the columns (adoptColumns).
func adoptCheckedColumns(d, h, eta int, c Columns) (*Tree, error) {
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
	t.adoptColumns(c, rows)
	return t, nil
}

// checkRow runs the per-row checks that keep the linkage rebuild
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
// whole arena: the slices are taken over when their capacities already
// match the canonical arena sizing and copied into canonically sized
// slabs otherwise. The linkage columns are allocated unlinked at the
// same capacity and the child tables dropped; link (or the validating
// per-row linkChild) rebuilds them.
func (t *Tree) adoptColumns(c Columns, rows int) {
	capRows := ArenaCapFor(rows)
	t.tabs, t.tabBytes = nil, 0
	if cap(c.Loc) == capRows {
		t.loc = c.Loc
	} else {
		t.loc = append(make([]uint64, 0, capRows), c.Loc...)
	}
	if cap(c.N) == capRows {
		t.n = c.N
	} else {
		t.n = append(make([]int32, 0, capRows), c.N...)
	}
	if cap(c.Used) == capRows {
		t.used = c.Used
	} else {
		t.used = append(make([]bool, 0, capRows), c.Used...)
	}
	if cap(c.Level) == capRows {
		t.level = c.Level
	} else {
		t.level = append(make([]uint8, 0, capRows), c.Level...)
	}
	if cap(c.Parent) == capRows {
		t.parent = c.Parent
	} else {
		t.parent = append(make([]Ref, 0, capRows), c.Parent...)
	}
	if cap(c.P) == capRows*t.D {
		t.p = c.P
	} else {
		t.p = append(make([]int32, 0, capRows*t.D), c.P...)
	}
	nilRefs := func() []Ref {
		s := make([]Ref, rows, capRows)
		for i := range s {
			s[i] = NilRef
		}
		return s
	}
	t.firstChild = nilRefs()
	t.lastChild = nilRefs()
	t.nextSib = nilRefs()
	t.childCount = make([]int32, rows, capRows)
	t.childTab = make([]int32, rows, capRows)
	for i := range t.childTab {
		t.childTab[i] = -1
	}
}

// Equal reports whether two trees store exactly the same cells with
// the same counts, half-space counters and usedCell flags (iteration
// order and build statistics are ignored — a serial build, a sharded
// merge, an external spill-and-merge build and a snapshot load of the
// same dataset are all Equal).
func Equal(a, b *Tree) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.D != b.D || a.H != b.H || a.Eta != b.Eta || a.CellCount() != b.CellCount() {
		return false
	}
	equal := true
	for h := 1; h <= a.H-1 && equal; h++ {
		a.WalkLevel(h, func(p Path, ra Ref) {
			if !equal {
				return
			}
			rb := b.CellAt(p)
			if rb == NilRef || a.N(ra) != b.N(rb) || a.Used(ra) != b.Used(rb) {
				equal = false
				return
			}
			for j := 0; j < a.D; j++ {
				if a.P(ra, j) != b.P(rb, j) {
					equal = false
					return
				}
			}
		})
	}
	return equal
}
