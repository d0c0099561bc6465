package ctree

import (
	"cmp"
	"math/bits"
	"slices"

	"mrcc/internal/dataset"
)

// LevelIndexesWithLinks builds the level indexes of the union of srcs
// as UnionLevelIndexes does (EnsureLevelIndexes for one tree), without
// caching them, but keeps every level's link list, which the production
// build drops, so the link oracles can check each link. Each list is
// joined into one block sorted by its lower entry, for UpperLink's
// binary search.
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
// along axis j — the stored cell at ix.PathOf(i).NeighborInto(nil, j, true) — or
// -1 when that neighbor falls outside the unit cube or is not stored.
// ix must come from LevelIndexesWithLinks.
func UpperLink(ix *LevelIndex, i, j int) int {
	links := ix.up[0]
	k, _ := slices.BinarySearchFunc(links, int32(i), func(l upLink, a int32) int { return cmp.Compare(l.a, a) })
	for ; k < len(links) && int(links[k].a) == i; k++ {
		if b := int(links[k].b); bits.TrailingZeros64(ix.loc(i)^ix.loc(b)) == j {
			return b
		}
	}
	return -1
}

// Canonical reports whether t's arena lists the cells in the canonical
// order: every tree's does, and the per-point Insert oracle's does not.
func Canonical(t *Tree) bool { return t.scanCanonical() }

// WrittenOnceBytes is the footprint of a written-once tree of rows rows
// (cells + the root sentinel): its state columns and half-space slab,
// exactly sized.
func WrittenOnceBytes(d, rows int) uint64 { return stateBytes(d, rows) }

// ChildCountExact reports whether t's child-count column holds exactly
// its rows.
func ChildCountExact(t *Tree) bool { return cap(t.childCount) == len(t.loc) }

// ServiceRuns builds pts into the streaming service's active runs: each
// batch of batch points into a tree of its own (Build on one worker),
// then the two newest trees united for as long as the newer holds at
// least half the older's points — the ingest rule of internal/serve.
func ServiceRuns(pts [][]float64, d, H, batch int) ([]*Tree, error) {
	var runs []*Tree
	for lo := 0; lo < len(pts); lo += batch {
		run, err := Build(&dataset.Dataset{Dims: d, Points: pts[lo:min(lo+batch, len(pts))]}, H, BuildOptions{Workers: 1})
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
		for n := len(runs); n >= 2 && 2*runs[n-1].Eta >= runs[n-2].Eta; n-- {
			u, err := Union(runs[n-2], runs[n-1])
			if err != nil {
				return nil, err
			}
			runs = append(runs[:n-2], u)
		}
	}
	return runs, nil
}
