package ctree

// LevelIndexesWithLinks builds t's level indexes as EnsureLevelIndexes
// does, without caching them on t, but keeps every level's upper link
// rows, which the production build drops, so the link oracles can check
// each link.
func LevelIndexesWithLinks(t *Tree) []*LevelIndex { return t.buildLevelIndexes(true) }

// UpperLink returns the entry index of entry i's upper face neighbor
// along axis j — the stored cell at ix.PathOf(i).Neighbor(j, true) — or
// -1 when that neighbor falls outside the unit cube or is not stored.
// ix must come from LevelIndexesWithLinks.
func UpperLink(ix *LevelIndex, i, j int) int { return int(ix.up[i*ix.d+j]) }
