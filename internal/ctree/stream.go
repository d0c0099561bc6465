// Streaming support: public batch insertion and deep cloning — the two
// tree operations the long-running service (internal/serve) layers its
// two-tree window rotation and RCU view publication on. InsertBatch
// folds a whole point batch into a live tree through Build's own sort
// and count phases (build.go); Clone produces an independent tree the
// re-cluster loop can index and scan while ingestion keeps mutating
// the original.
package ctree

import (
	"fmt"

	"mrcc/internal/dataset"
)

// InsertBatch counts a batch of points (each in [0,1)^d) into the
// tree with the same counts Build gives them, through Build's sort and
// count phases: the batch is sorted by cell path into one record
// stream, and runs of points sharing a path are counted in one descent
// instead of len(points) separate root-to-leaf walks. One call into an
// empty tree writes Build's canonical tree; later calls append the
// cells they create in first-touch order. While it sorts, InsertBatch
// holds ExternalRecordBytes(d, H) bytes per batch point next to the
// tree (32 B for packed keys), as an in-memory Build does.
//
// The sort validates every point before the tree is touched, so an
// error — wrong dimensionality, a value outside [0,1), or a batch that
// would push the point count past MaxPoints — leaves the tree exactly
// as it was. That atomicity is what lets a streaming ingest path
// reject a bad batch with a client error and keep serving from an
// unpolluted tree. No fault point, context or memory limit is polled.
func (t *Tree) InsertBatch(points [][]float64) error {
	m := len(points)
	if m == 0 {
		return nil
	}
	if int64(t.Eta)+int64(m) > int64(MaxPoints) {
		return fmt.Errorf("ctree: inserting %d points into a tree counting %d exceeds the int32 cell-counter maximum %d (MaxPoints); shard into separate trees",
			m, t.Eta, int64(MaxPoints))
	}
	if t.spread == nil {
		t.spread = newKeySpread(t.D, t.H)
	}
	rs, err := sortShard(&dataset.Dataset{Dims: t.D, Points: points}, 0, m, t.H, t.spread, nil)
	if err != nil {
		return err
	}
	return countMerged(t, []*recordStream{rs}, nil, nil, m)
}

// Clone returns a deep, independent copy of the tree: all arena
// columns, the half-space slab and the child tables are copied at
// their current capacities, so the clone's MemoryBytes equals the
// original's and later mutation of either tree never touches the
// other (the read-only key spread table is shared). The lazily built
// level indexes are not copied — the clone rebuilds them on first use
// — but the cached canonical-order verdict is.
func (t *Tree) Clone() *Tree {
	c := &Tree{
		D: t.D, H: t.H, Eta: t.Eta, dmask: t.dmask,
		grows: t.grows, runs: t.runs, runPoints: t.runPoints,
		radixChunks: t.radixChunks,
		spillRuns:   t.spillRuns, spillBytes: t.spillBytes,
		tabBytes: t.tabBytes, spread: t.spread,
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
	c.canon.Store(t.canon.Load())
	c.tabs = make([][]Ref, len(t.tabs), cap(t.tabs))
	for i, tab := range t.tabs {
		c.tabs[i] = cloneRefs(tab)
	}
	return c
}
