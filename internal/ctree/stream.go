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
// The tree it leaves is a grown one (arena.go): its arena doubles as
// cells arrive and it keeps child links, which the descent into a
// populated tree needs. The first call into a written-once tree (a
// build, a union, a load or a clone) links it in one pass before the
// count; a call into an empty tree links it after.
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
	if t.CellCount() > 0 {
		t.link()
	}
	if err := countMerged(t, []*recordStream{rs}, nil, nil, m); err != nil {
		return err
	}
	t.link()
	return nil
}

// Clone returns a deep, independent copy of the tree as a written-once
// tree: its state columns and half-space slab copied at their lengths,
// with no spare capacity and no child links, so the clone's
// MemoryBytes is that of its cells alone (a clone of a written-once
// tree reports the original's). Later mutation of either tree never
// touches the other (the read-only key spread table is shared). The
// lazily built level indexes are not copied — the clone rebuilds them
// on first use — but the cached canonical-order verdict and the build
// statistics are.
func (t *Tree) Clone() *Tree {
	c := &Tree{
		D: t.D, H: t.H, Eta: t.Eta, dmask: t.dmask,
		grows: t.grows, runs: t.runs, runPoints: t.runPoints,
		radixChunks: t.radixChunks,
		spillRuns:   t.spillRuns, spillBytes: t.spillBytes,
		spread: t.spread,
		loc:    exact(t.loc), n: exact(t.n), used: exact(t.used), level: exact(t.level),
		parent: exact(t.parent), childCount: exact(t.childCount), p: exact(t.p),
	}
	c.canon.Store(t.canon.Load())
	return c
}
