package core

import (
	"testing"

	"mrcc/internal/ctree"
)

// WithNaiveScan returns cfg with the naive scan oracle on: every
// restart pass re-convolves every eligible cell (serially, or chunked
// across cfg.Workers) instead of reading the one-shot convolution
// cache. The scan-equivalence suites and BenchmarkBetaSearch's
// baseline row reach it through here.
func WithNaiveScan(cfg Config) Config {
	cfg.scan = (*searcher).densestCellNaive
	return cfg
}

// WithoutCacheRepair returns cfg with the scan cache's incremental
// eligibility repair off: every restart pass re-walks each level's
// scan order from the top, the full-rebuild oracle the repair cursor
// is pinned against.
func WithoutCacheRepair(cfg Config) Config {
	cfg.scan = (*searcher).densestCellRewalk
	return cfg
}

// WindowTrees builds the streaming service's window from a stream of
// points the way the service does: the older half counted into an aging
// tree and the newer half into the active one, each in InsertBatch
// batches of batch points, then the aging tree canonicalized (the
// service does it once per rotation). A pass clusters the two as they
// are (Run over both); WindowTree merges them. Shared by the
// package's internal and external tests.
func WindowTrees(t testing.TB, pts [][]float64, d, H, batch int) (aging, active *ctree.Tree) {
	t.Helper()
	aging = FirstTouchTree(t, pts[:len(pts)/2], d, H, batch)
	active = FirstTouchTree(t, pts[len(pts)/2:], d, H, batch)
	aging, err := ctree.Canonicalize(aging)
	if err != nil {
		t.Fatal(err)
	}
	return aging, active
}

// WindowTree is the window of WindowTrees merged into one tree: the
// aging tree merged into a clone of the active one. MergeFrom writes
// the canonical order, so the result stores the same cells as a Build
// of the points at H levels, in the same arena order, and is what
// snapshots of the window save.
func WindowTree(t testing.TB, pts [][]float64, d, H, batch int) *ctree.Tree {
	t.Helper()
	aging, active := WindowTrees(t, pts, d, H, batch)
	merged := active.Clone()
	if err := merged.MergeFrom(aging); err != nil {
		t.Fatal(err)
	}
	return merged
}

// FirstTouchTree counts pts into one tree by InsertBatch calls of batch
// points each: the same cells as a Build, but each cell's children
// chained in first-touch order rather than ascending by loc, so the
// level index sorts every child run. Shared by the package's internal
// and external tests.
func FirstTouchTree(t testing.TB, pts [][]float64, d, H, batch int) *ctree.Tree {
	t.Helper()
	tr := ctree.New(d, H)
	for i := 0; i < len(pts); i += batch {
		if err := tr.InsertBatch(pts[i:min(i+batch, len(pts))]); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}
