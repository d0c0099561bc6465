// Streaming support: batch insertion and deep cloning. InsertBatch
// folds a point batch into a tree through Build's own sort and count
// phases (build.go) and one Union; Clone produces an independent tree
// a caller can cluster, whose Used flags and cached level indexes
// leave the original alone.
package ctree

import (
	"fmt"

	"mrcc/internal/dataset"
)

// InsertBatch counts a batch of points (each in [0,1)^d) into the
// tree with the same counts Build gives them. The batch goes through
// Build's sort and count phases into a fresh tree of exactly its cells;
// a tree that held no cell adopts that one, and any other is rewritten
// as the union of the two (writeUnion). Either way the tree ends
// written-once and in canonical order, with Build's columns for all
// the points it counted. The call costs O(batch) for the count plus,
// into a populated tree, O(cells) for the union: a caller that keeps
// feeding one tree pays for its whole arena on every call (the
// streaming service keeps immutable runs instead, internal/serve).
// While it sorts, InsertBatch holds ExternalRecordBytes(d, H) bytes
// per batch point next to the tree (32 B for packed keys), as an
// in-memory Build does.
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
	b, err := countStreams(t.D, t.H, t.spread, []*recordStream{rs}, nil, nil, m)
	if err != nil {
		return err
	}
	if t.CellCount() > 0 {
		t.writeUnion([]*Tree{t, b})
		return nil
	}
	t.invalidateIndexes()
	t.adoptColumns(b.Columns())
	t.childCount = b.childCount
	t.Eta, t.runs, t.runPoints, t.radixChunks = b.Eta, t.runs+b.runs, t.runPoints+b.runPoints, t.radixChunks+b.radixChunks
	return nil
}

// Clone returns a deep, independent copy of the tree as a written-once
// tree: its state columns and half-space slab copied at their lengths,
// with no spare capacity, so the clone's MemoryBytes is that of its
// cells alone (a clone of a written-once tree reports the original's).
// Later mutation of either tree never touches the other (the read-only
// key spread table is shared). The lazily built level indexes are not
// copied — the clone rebuilds them on first use — but the build
// statistics are.
func (t *Tree) Clone() *Tree {
	return &Tree{
		D: t.D, H: t.H, Eta: t.Eta, dmask: t.dmask,
		grows: t.grows, runs: t.runs, runPoints: t.runPoints,
		radixChunks: t.radixChunks,
		spillRuns:   t.spillRuns, spillBytes: t.spillBytes,
		spread: t.spread,
		loc:    exact(t.loc), n: exact(t.n), used: exact(t.used), level: exact(t.level),
		parent: exact(t.parent), childCount: exact(t.childCount), p: exact(t.p),
	}
}
