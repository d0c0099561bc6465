// Hierarchical merge tournament and canonical arena ordering.
//
// MergeFrom is associative and order-independent (the permutation
// property test in tournament_test.go pins this), so W shard trees can
// be reduced pairwise in ceil(log2 W) rounds instead of a linear fold:
// round k merges tree pairs (0,1), (2,3), ... with the lower shard
// index as the destination, all pairs of a round in parallel. The
// result stores the same cells with the same counts whatever the
// reduction shape — but its ARENA ORDER (and therefore its snapshot
// bytes) depends on the merge walk. Canonicalize closes that gap: it
// rewrites any tree into the one canonical arena order (DFS preorder,
// siblings ascending by Loc), which is exactly the order Build creates
// cells in, because its path keys are level-major (level-1 position in
// the most significant bits, see packedPathKey in batch.go) and merged
// ascending. Two canonicalized trees that are Equal serialize to
// byte-identical treeio snapshots.
package ctree

import (
	"fmt"
	"runtime"
	"sort"
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
// ascending by Loc. Build already creates cells in this order — its
// merged, level-major path keys ARE the preorder walk — so it returns
// a built tree unchanged, and canonicalizing any equal tree (a
// tournament merge, a MergeFrom fold, a tree grown by InsertBatch)
// makes its treeio snapshot byte-identical to Build's. When the tree
// is already canonical it is returned unchanged; otherwise a rewritten
// tree is returned and the input is left untouched. Build statistics
// (BatchRuns, RadixChunks, ArenaGrows) carry over, and MemoryBytes is
// preserved exactly (a permutation neither adds nor removes cells).
func Canonicalize(t *Tree) (*Tree, error) {
	rows := len(t.loc)
	order := make([]Ref, 0, rows)
	stack := make([]Ref, 0, 64)
	kids := make([]Ref, 0, 64)
	appendKids := func(par Ref) {
		kids = kids[:0]
		for c := t.firstChild[par]; c >= 0; c = t.nextSib[c] {
			kids = append(kids, c)
		}
		// Descending by Loc so the stack pops siblings ascending.
		sort.Slice(kids, func(i, j int) bool { return t.loc[kids[i]] > t.loc[kids[j]] })
		stack = append(stack, kids...)
	}
	order = append(order, rootRef)
	appendKids(rootRef)
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, r)
		appendKids(r)
	}
	if len(order) != rows {
		return nil, fmt.Errorf("ctree: canonical walk visited %d of %d cells (broken child chains)", len(order)-1, rows-1)
	}
	canonical := true
	for i, r := range order {
		if Ref(i) != r {
			canonical = false
			break
		}
	}
	if canonical {
		return t, nil
	}
	d := t.D
	capRows := ArenaCapFor(rows)
	c := Columns{
		Loc:    make([]uint64, rows, capRows),
		N:      make([]int32, rows, capRows),
		Used:   make([]bool, rows, capRows),
		Level:  make([]uint8, rows, capRows),
		Parent: make([]Ref, rows, capRows),
		P:      make([]int32, rows*d, capRows*d),
	}
	newOf := make([]Ref, rows)
	for ni, r := range order {
		newOf[r] = Ref(ni)
	}
	for ni, r := range order {
		c.Loc[ni] = t.loc[r]
		c.N[ni] = t.n[r]
		c.Used[ni] = t.used[r]
		c.Level[ni] = t.level[r]
		if r == rootRef {
			c.Parent[ni] = NilRef
		} else {
			c.Parent[ni] = newOf[t.parent[r]]
		}
		copy(c.P[ni*d:(ni+1)*d], t.p[int(r)*d:int(r)*d+d])
	}
	nt, err := NewFromColumnsTrusted(t.D, t.H, t.Eta, c)
	if err != nil {
		return nil, err
	}
	nt.grows = t.grows
	nt.runs = t.runs
	nt.runPoints = t.runPoints
	nt.radixChunks = t.radixChunks
	return nt, nil
}
