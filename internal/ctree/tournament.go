// Hierarchical merge tournament and canonical arena ordering.
//
// MergeFrom is associative and order-independent (the permutation
// property test in tournament_test.go pins this), so W shard trees can
// be reduced pairwise in ceil(log2 W) rounds instead of a linear fold:
// round k merges tree pairs (0,1), (2,3), ... with the lower shard
// index as the destination, all pairs of a round in parallel. Every
// merge writes the canonical arena order (DFS preorder, siblings
// ascending by Loc), which is exactly the order Build creates cells in,
// because its path keys are level-major (level-1 position in the most
// significant bits, see packedPathKey in batch.go) and merged
// ascending. So the tournament's winner is canonical whatever the
// reduction shape, and two Equal canonical trees serialize to
// byte-identical treeio snapshots. Canonicalize covers the trees no
// merge or build wrote: those grown by InsertBatch.
package ctree

import (
	"fmt"
	"runtime"
	"sync"
)

// MergeTournament reduces the shard trees into trees[<lowest live
// index>] with a pairwise parallel tournament: each round merges
// adjacent survivors (the lower shard index is the destination, so
// ties always resolve toward the earliest shard), running up to
// `parallel` merges of a round concurrently (<= 0 selects GOMAXPROCS).
// An odd survivor passes through to the next round unmerged. It
// returns the surviving tree and the number of rounds executed —
// ceil(log2 W) for W > 1, zero for a single tree.
//
// check, when non-nil, runs before every pairwise merge; a non-nil
// return aborts the tournament with that error after the current
// round's merges drain (no goroutine is left behind). The trees slice
// and the trees it holds are consumed: destinations accumulate counts
// even on an aborted run, so callers must discard every input on
// error.
func MergeTournament(trees []*Tree, parallel int, check func() error) (*Tree, int, error) {
	if len(trees) == 0 {
		return nil, 0, fmt.Errorf("ctree: merge tournament over zero trees")
	}
	for i, t := range trees {
		if t == nil {
			return nil, 0, fmt.Errorf("ctree: merge tournament input %d is nil", i)
		}
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	cur := append([]*Tree(nil), trees...)
	rounds := 0
	for len(cur) > 1 {
		rounds++
		pairs := len(cur) / 2
		errs := make([]error, pairs)
		sem := make(chan struct{}, parallel)
		var wg sync.WaitGroup
		for i := 0; i < pairs; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				if check != nil {
					if err := check(); err != nil {
						errs[i] = err
						return
					}
				}
				errs[i] = cur[2*i].MergeFrom(cur[2*i+1])
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, rounds, err
			}
		}
		next := cur[:0]
		for i := 0; i < pairs; i++ {
			next = append(next, cur[2*i])
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		cur = next
	}
	return cur[0], rounds, nil
}

// Canonicalize returns a tree storing exactly the same cells in the
// canonical arena order: DFS preorder with every parent's children
// ascending by Loc, the order Build creates cells in and every MergeFrom
// writes. A tree already in that order (a build, a merge, a snapshot
// of either) is returned unchanged; any other (a tree grown by
// InsertBatch or Insert) is rewritten as New(d, H).MergeFrom(t) and the
// input left untouched. Build statistics (BatchRuns, RadixChunks,
// ArenaGrows) carry over, and MemoryBytes is preserved exactly.
func Canonicalize(t *Tree) (*Tree, error) {
	if t.canonical() {
		return t, nil
	}
	nt := New(t.D, t.H)
	if err := nt.MergeFrom(t); err != nil {
		return nil, err
	}
	return nt, nil
}

// canonical reports whether the arena lists the cells in the canonical
// order. Child chains always run in ascending Ref order (cells are
// appended at the chain tail, and link rebuilds chains that way), so
// the arena is in DFS preorder exactly when each cell's parent is the
// latest cell of the level above, and siblings ascend by Loc exactly
// when each cell's loc is at least next[l]: one past the loc of the
// latest cell of its level, or 0 once a later cell of the level above
// has started a new child run. Both arrays are indexed by the uint8
// level, so the loop needs no bounds checks on them and branches only
// on a failure.
func (t *Tree) canonical() bool {
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
