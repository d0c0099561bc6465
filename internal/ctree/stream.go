// Streaming support: the run list that grows a Counting-tree batch by
// batch, batch insertion into one tree and deep cloning. Runs.Add
// builds each batch into a run of its own and unites the newest runs by
// size, the one ingest rule of the streaming service and the facade;
// InsertBatch folds a batch into one tree through Build and one Union;
// Clone produces an independent tree, so that a one-tree run can cache
// its level indexes on a copy that is dropped with them instead of on
// the original.
package ctree

import (
	"fmt"

	"mrcc/internal/dataset"
)

// Runs is a Counting-tree grown batch by batch: immutable runs, oldest
// first, whose counts add up to the tree of every point they counted,
// so their Union is Build's tree of those points and core.Run over
// them gives that tree's answers. Add never writes a run or a list's
// backing array, so a list a reader took keeps reading the same.
type Runs []*Tree

// Add returns the list with a batch of points (each in [0,1)^d) counted
// in, as a fresh list. The batch is built into a run of its own (Build
// on one worker, which validates every point first), and the newest
// runs are united with one k-way Union for as long as the newest holds
// at least half the points of the run before it. So each run holds more
// than twice the points of the next, equal batches of b points make at
// most ⌈log2(n/b)⌉ + 1 runs of n points, and a point is rewritten about
// log2(n/b) times: feeding n points costs O(n·log(n/b)), not the
// O(n²/b) of rewriting one tree per batch. The shape depends only on
// the batch sizes. An empty batch adds nothing. A refused batch — an
// invalid point, or one that would push the runs past MaxPoints, which
// is refused before it is built — returns the receiver unchanged.
func (rs Runs) Add(points [][]float64, d, H int) (Runs, error) {
	if len(points) == 0 {
		return rs, nil
	}
	if eta := rs.Points(); int64(eta)+int64(len(points)) > int64(MaxPoints) {
		return rs, fmt.Errorf("ctree: adding %d points to runs counting %d exceeds the int32 cell-counter maximum %d (MaxPoints); shard into separate trees",
			len(points), eta, int64(MaxPoints))
	}
	run, err := Build(&dataset.Dataset{Dims: d, Points: points}, H, BuildOptions{Workers: 1})
	if err != nil {
		return rs, err
	}
	k, eta := len(rs), run.Eta
	for ; k > 0 && 2*eta >= rs[k-1].Eta; k-- {
		eta += rs[k-1].Eta
	}
	if k < len(rs) {
		if run, err = Union(append(rs[k:len(rs):len(rs)], run)...); err != nil {
			return rs, err
		}
	}
	return append(rs[:k:k], run), nil
}

// Points returns the number of points the runs count.
func (rs Runs) Points() int {
	n := 0
	for _, t := range rs {
		n += t.Eta
	}
	return n
}

// MemoryBytes returns the runs' footprint, the sum of their
// MemoryBytes.
func (rs Runs) MemoryBytes() uint64 {
	var n uint64
	for _, t := range rs {
		n += t.MemoryBytes()
	}
	return n
}

// InsertBatch counts a batch of points (each in [0,1)^d) into the
// tree with the same counts Build gives them: Build counts the batch
// on one worker into a tree of exactly its cells, which a tree that
// held no cell adopts, and which any other merges (MergeFrom). Either
// way the tree ends written-once and in canonical order, with Build's
// columns for all the points it counted. Into a populated tree a call
// costs O(cells + batch), so a caller that keeps feeding one tree pays
// for its whole arena on every call, where Runs.Add rewrites each point
// about log2(n/b) times in all. perfbench's stream replay is its only
// caller; a benchmark change moves the replay to Runs and removes it.
//
// An error — wrong dimensionality, a value outside [0,1), or a batch
// that would push the point count past MaxPoints — leaves the tree
// exactly as it was.
func (t *Tree) InsertBatch(points [][]float64) error {
	if len(points) == 0 {
		return nil
	}
	b, err := Build(&dataset.Dataset{Dims: t.D, Points: points}, t.H, BuildOptions{Workers: 1})
	if err != nil {
		return err
	}
	if t.CellCount() > 0 {
		return t.MergeFrom(b)
	}
	t.invalidateIndexes()
	t.adoptColumns(b.Columns())
	t.Eta = b.Eta
	return nil
}

// Clone returns a deep, independent copy of the tree as a written-once
// tree: its state columns and half-space slab copied at their lengths,
// with no spare capacity, so the clone's MemoryBytes is that of its
// cells alone (a clone of a written-once tree reports the original's).
// Later mutation of either tree never touches the other. The lazily
// built level indexes are not copied — the clone rebuilds them on first
// use.
func (t *Tree) Clone() *Tree {
	return &Tree{
		D: t.D, H: t.H, Eta: t.Eta, dmask: t.dmask,
		loc: exact(t.loc), n: exact(t.n), used: exact(t.used), level: exact(t.level),
		parent: exact(t.parent), p: exact(t.p),
	}
}
