package ctree

import (
	"errors"
	"fmt"
)

// MergeFrom adds every count of other into t: t becomes Union(t,
// other), a written-once tree, every Ref into t from before the merge
// is void, and other is left untouched. It refuses what Union refuses
// (a different geometry, or points summing past MaxPoints), leaving t
// unmodified.
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
// The union is canonical and written-once, with Build's arena order,
// columns and MemoryBytes for the same cells. The inputs are left
// untouched; a tree may appear more than once.
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
// columns of exactly rows rows that t adopts: t ends written-once, in
// canonical order (arena.go).
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
	c := Columns{
		Loc:    make([]uint64, rows),
		N:      make([]int32, rows),
		Used:   make([]bool, rows),
		Level:  make([]uint8, rows),
		Parent: make([]Ref, rows),
		P:      make([]int32, rows*d),
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
	eta := 0
	for _, src := range trees {
		eta += src.Eta
	}
	t.invalidateIndexes()
	t.adoptColumns(c)
	t.Eta = eta
}
