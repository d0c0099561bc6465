package ctree

import (
	"errors"
	"fmt"
)

// MergeFrom adds every count of other into t: t becomes Union(t,
// other), every Ref into t from before the merge is void, and other is
// left untouched. It refuses what Union refuses (a different geometry,
// or points summing past MaxPoints), leaving t unmodified.
func (t *Tree) MergeFrom(other *Tree) error {
	if other == nil {
		return nil
	}
	if err := checkUnion(t, other); err != nil {
		return err
	}
	t.writeUnion([]*Tree{t, other})
	return nil
}

// Union returns the union of trees as a new tree: every cell any of
// them stores, its N and half-space counters the sums of theirs and its
// usedCell flag set when any of theirs is. Counts add up across trees
// (a tree is the sum of its points' increments), so the union of trees
// built over the parts of a dataset is the tree Build gives the whole.
// The union is canonical, in Build's arena order, columns and
// MemoryBytes for the same cells, whatever order its inputs are in, and
// its build statistics (ArenaGrows, BatchRuns, RadixChunks) are the
// inputs' sums. The inputs are left untouched; a tree may appear more
// than once.
//
// Union refuses an empty or nil input, trees of different
// dimensionality or resolution count, and trees whose points sum past
// MaxPoints: every cell counter is int32, and the level-1 cells, which
// count every point, would wrap first.
func Union(trees ...*Tree) (*Tree, error) {
	if err := checkUnion(trees...); err != nil {
		return nil, err
	}
	u := &Tree{D: trees[0].D, H: trees[0].H, dmask: trees[0].dmask}
	u.writeUnion(trees)
	return u, nil
}

// checkUnion reports whether trees can be counted as one: at least one
// tree, none nil, all of the same dimensionality and resolution count,
// and at most MaxPoints points in total.
func checkUnion(trees ...*Tree) error {
	if len(trees) == 0 {
		return errors.New("ctree: no trees to combine")
	}
	eta := int64(0)
	for i, t := range trees {
		if t == nil {
			return fmt.Errorf("ctree: tree %d to combine is nil", i)
		}
		if t.D != trees[0].D || t.H != trees[0].H {
			return fmt.Errorf("ctree: cannot combine (d=%d, H=%d) with (d=%d, H=%d)",
				trees[0].D, trees[0].H, t.D, t.H)
		}
		eta += int64(t.Eta)
	}
	if eta > int64(MaxPoints) {
		return fmt.Errorf("ctree: combining %d points exceeds the int32 cell-counter maximum %d (MaxPoints); shard into separate trees",
			eta, int64(MaxPoints))
	}
	return nil
}

// unionLevel is one merged level that writeUnion keeps until it writes
// the rows: the entries' per-source Refs and summed counts, and their
// locs and run offsets.
type unionLevel struct {
	refs [][]Ref
	cnt  []int32
	levelRuns
}

// writeUnion replaces t's arena with the union of trees, which checkUnion
// accepted and t may be one of. The level merge lists every level of the
// union in path order; the rows are then written in Build's DFS
// preorder, a walk down the run offsets (kids) in which a cell goes one
// row past its parent, or past its previous sibling's subtree. Each row
// sums its sources' N and P and ORs their usedCell flags, in fresh
// columns of ArenaCapFor(rows) that t adopts and links, so each wide
// node's child table is built once, at its final size.
func (t *Tree) writeUnion(trees []*Tree) {
	d, H := t.D, t.H
	m := newLevelMerger(trees)
	masks := make([]uint64, 2*m.parents)
	levels := make([]unionLevel, H)
	rows, above := 1, m.roots
	for h := 1; h <= H-1; h++ {
		refs, cnt, runs := m.merge(h, above, levelRuns{
			kids: make([]int32, len(above[0])+1),
			locs: make([]uint64, 0, m.bound[h]),
			and:  masks[:m.parents],
			or:   masks[m.parents:],
		})
		levels[h] = unionLevel{refs, cnt, runs}
		rows += len(cnt)
		above = refs
	}
	capRows := ArenaCapFor(rows)
	c := Columns{
		Loc:    make([]uint64, rows, capRows),
		N:      make([]int32, rows, capRows),
		Used:   make([]bool, rows, capRows),
		Level:  make([]uint8, rows, capRows),
		Parent: make([]Ref, rows, capRows),
		P:      make([]int32, rows*d, capRows*d),
	}
	c.Parent[0] = NilRef
	// next[h] and end[h] bound the run of level-h entries being written,
	// the children of row par[h] (the root sentinel at level 1).
	var next, end [MaxLevels]int32
	var par [MaxLevels]Ref
	end[1] = int32(len(levels[1].cnt))
	row := 1
	for h := 1; h > 0; {
		if next[h] == end[h] {
			h--
			continue
		}
		l, i := &levels[h], next[h]
		next[h]++
		c.Loc[row], c.N[row], c.Level[row], c.Parent[row] = l.locs[i], l.cnt[i], uint8(h), par[h]
		prow := c.P[row*d : row*d+d]
		for s, src := range trees {
			if r := int(l.refs[s][i]); r >= 0 {
				c.Used[row] = c.Used[row] || src.used[r]
				for j, v := range src.p[r*d : r*d+d] {
					prow[j] += v
				}
			}
		}
		if h+1 < H {
			below := &levels[h+1]
			next[h+1], end[h+1], par[h+1] = below.kids[i], below.kids[i+1], Ref(row)
			h++
		}
		row++
	}
	var eta int
	var grows, batchRuns, runPoints, radixChunks int64
	for _, src := range trees {
		eta += src.Eta
		grows += src.grows
		batchRuns += src.runs
		runPoints += src.runPoints
		radixChunks += src.radixChunks
	}
	t.invalidateIndexes()
	t.adoptColumns(c, rows)
	t.link()
	t.Eta, t.grows, t.runs, t.runPoints, t.radixChunks = eta, grows, batchRuns, runPoints, radixChunks
}

// Canonicalize returns a tree storing exactly t's cells in the
// canonical arena order, the DFS preorder with every parent's children
// ascending by Loc that Build and Union write: t itself when it is in
// that order already (a build, a union, a snapshot of either), Union(t)
// otherwise (a tree grown by InsertBatch), which leaves t
// untouched and keeps its build statistics and MemoryBytes.
func Canonicalize(t *Tree) (*Tree, error) {
	if t.canonical() {
		return t, nil
	}
	return Union(t)
}

// The values of Tree.canon.
const (
	canonUnknown = iota
	canonYes
	canonNo
)

// canonical reports whether the arena lists the cells in the canonical
// order. The verdict of one scan (scanCanonical) is kept on the tree
// until the next change to its cells, so a tree that stays put, such
// as the service's aging tree, is scanned once.
func (t *Tree) canonical() bool {
	switch t.canon.Load() {
	case canonYes:
		return true
	case canonNo:
		return false
	}
	ok := t.scanCanonical()
	if ok {
		t.canon.Store(canonYes)
	} else {
		t.canon.Store(canonNo)
	}
	return ok
}

// scanCanonical reports whether the arena lists the cells in the
// canonical order, in one pass over it. Child chains always run in
// ascending Ref order (cells are appended at the chain tail, and link
// rebuilds chains that way), so the arena is in DFS preorder exactly
// when each cell's parent is the latest cell of the level above, and
// siblings ascend by Loc exactly when each cell's loc is at least
// next[l]: one past the loc of the latest cell of its level, or 0 once
// a later cell of the level above has started a new child run. Both
// arrays are indexed by the uint8 level, so the loop needs no bounds
// checks on them and branches only on a failure.
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
