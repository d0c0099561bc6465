package ctree

import (
	"cmp"
	"math/bits"
	"slices"
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

// CanonicalVerdicts returns t's canonical-order verdict as the level
// merge reads it (cached after the first call) and as a fresh scan of
// the arena finds it.
func CanonicalVerdicts(t *Tree) (cached, scanned bool) {
	return t.canonical(), t.scanCanonical()
}
