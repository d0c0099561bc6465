package ctree

import (
	"cmp"
	"math/bits"
	"slices"
	"testing"
)

// LevelIndexesWithLinks builds the level indexes of the union of srcs
// as UnionLevelIndexes does, but keeps every level's link list, which
// the production build drops, so the link oracles can check each link.
// Each list is joined into one block sorted by its lower entry, for
// UpperLink's binary search.
func LevelIndexesWithLinks(srcs ...*Tree) []*LevelIndex {
	idxs := buildLevelIndexes(srcs, true)
	for _, ix := range idxs {
		all := slices.Concat(ix.up...)
		slices.SortFunc(all, func(x, y upLink) int { return cmp.Compare(x.a, y.a) })
		ix.up = [][]upLink{all}
	}
	return idxs
}

// UpperLink returns the entry index of entry i's upper face neighbor
// along axis j — the stored cell at ix.PathInto(nil, i).NeighborInto(nil, j, true) — or
// -1 when that neighbor falls outside the unit cube or is not stored.
// ix must come from LevelIndexesWithLinks.
func UpperLink(ix *LevelIndex, i, j int) int {
	links := ix.up[0]
	k, _ := slices.BinarySearchFunc(links, int32(i), func(l upLink, a int32) int { return cmp.Compare(l.a, a) })
	for ; k < len(links) && int(links[k].a) == i; k++ {
		if b := int(links[k].b); bits.TrailingZeros64(ix.locs[i]^ix.locs[b]) == j {
			return b
		}
	}
	return -1
}

// Indexes returns UnionLevelIndexes(srcs...), failing tb on an error:
// the index a run over srcs reads, one source or several.
func Indexes(tb testing.TB, srcs ...*Tree) []*LevelIndex {
	tb.Helper()
	idx, err := UnionLevelIndexes(srcs...)
	if err != nil {
		tb.Fatal(err)
	}
	return idx
}

// SourceRef returns entry i's arena Ref in ix's src-th source tree, or
// NilRef when that source does not store the cell, for the oracle that
// checks an index's refs against WalkLevel.
func SourceRef(ix *LevelIndex, i, src int) Ref { return ix.refs[src][i] }

// Canonical reports whether t's arena lists the cells in the canonical
// order: every tree's does, and the per-point Insert oracle's does not.
func Canonical(t *Tree) bool { return t.scanCanonical() }

// WrittenOnceBytes is the footprint of a written-once tree of rows rows
// (cells + the root sentinel): its state columns and half-space slab,
// exactly sized.
func WrittenOnceBytes(d, rows int) uint64 { return stateBytes(d, rows) }

// AddBatches counts pts into a run list by Runs.Add calls of batch
// points each, the way the streaming service ingests a stream.
func AddBatches(tb testing.TB, pts [][]float64, d, H, batch int) Runs {
	tb.Helper()
	var runs Runs
	for lo := 0; lo < len(pts); lo += batch {
		var err error
		if runs, err = runs.Add(pts[lo:min(lo+batch, len(pts))], d, H); err != nil {
			tb.Fatal(err)
		}
	}
	return runs
}
