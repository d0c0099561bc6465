// Streaming support: public batch insertion and deep cloning — the two
// tree operations the long-running service (internal/serve) layers its
// two-tree window rotation and RCU view publication on. InsertBatch
// folds a whole point batch into a live tree through sorted chunks
// counted by the same descent Build uses (batch.go); Clone produces an
// independent tree the re-cluster loop can merge and scan while
// ingestion keeps mutating the original.
package ctree

import (
	"fmt"
	"math"
)

// InsertBatch counts a batch of points (each in [0,1)^d) into the
// tree with the same counts Build gives them: the batch is processed
// in sorted chunks, so runs of points sharing a cell path are counted
// in one descent instead of len(points) separate root-to-leaf walks.
//
// Every point is validated before the tree is touched, so an error —
// wrong dimensionality, a value outside [0,1), or a batch that would
// push the point count past MaxPoints — leaves the tree exactly as it
// was. That atomicity is what lets a streaming ingest path reject a
// bad batch with a client error and keep serving from an unpolluted
// tree.
func (t *Tree) InsertBatch(points [][]float64) error {
	m := len(points)
	if m == 0 {
		return nil
	}
	if int64(t.Eta)+int64(m) > int64(MaxPoints) {
		return fmt.Errorf("ctree: inserting %d points into a tree counting %d exceeds the int32 cell-counter maximum %d (MaxPoints); shard into separate trees",
			m, t.Eta, int64(MaxPoints))
	}
	for i, p := range points {
		if len(p) != t.D {
			return fmt.Errorf("ctree: point %d has %d values, want %d", i, len(p), t.D)
		}
		for j, v := range p {
			if v < 0 || v >= 1 || math.IsNaN(v) {
				return fmt.Errorf("ctree: point %d: axis %d value %g outside [0,1): dataset must be normalized", i, j, v)
			}
		}
	}
	// Everything is validated and the count fits, so the chunked insert
	// below cannot fail (its only error sources are the validation and
	// overflow conditions excluded above).
	ins := newBatchInserter(t)
	for lo := 0; lo < m; lo += buildReportEvery {
		hi := lo + buildReportEvery
		if hi > m {
			hi = m
		}
		if err := ins.insert(points[lo:hi], lo); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep, independent copy of the tree: all arena
// columns, the half-space slab and the child tables are copied at
// their current capacities, so the clone's MemoryBytes equals the
// original's and later mutation of either tree never touches the
// other. The lazily built level indexes are not copied — the clone
// rebuilds them on first use.
func (t *Tree) Clone() *Tree {
	c := &Tree{
		D: t.D, H: t.H, Eta: t.Eta, dmask: t.dmask,
		grows: t.grows, runs: t.runs, runPoints: t.runPoints,
		radixChunks: t.radixChunks,
		spillRuns:   t.spillRuns, spillBytes: t.spillBytes,
		tabBytes: t.tabBytes,
	}
	c.loc = make([]uint64, len(t.loc), cap(t.loc))
	copy(c.loc, t.loc)
	c.n = make([]int32, len(t.n), cap(t.n))
	copy(c.n, t.n)
	c.used = make([]bool, len(t.used), cap(t.used))
	copy(c.used, t.used)
	c.level = make([]uint8, len(t.level), cap(t.level))
	copy(c.level, t.level)
	cloneRefs := func(src []Ref) []Ref {
		dst := make([]Ref, len(src), cap(src))
		copy(dst, src)
		return dst
	}
	c.parent = cloneRefs(t.parent)
	c.firstChild = cloneRefs(t.firstChild)
	c.lastChild = cloneRefs(t.lastChild)
	c.nextSib = cloneRefs(t.nextSib)
	c.childCount = make([]int32, len(t.childCount), cap(t.childCount))
	copy(c.childCount, t.childCount)
	c.childTab = make([]int32, len(t.childTab), cap(t.childTab))
	copy(c.childTab, t.childTab)
	c.p = make([]int32, len(t.p), cap(t.p))
	copy(c.p, t.p)
	c.tabs = make([][]Ref, len(t.tabs), cap(t.tabs))
	for i, tab := range t.tabs {
		c.tabs[i] = cloneRefs(tab)
	}
	return c
}
