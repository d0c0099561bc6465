package core

import (
	"testing"

	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
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

// WithScanHook returns cfg with hook called before each level scan of
// the β-search, which then scans as the method does; the cancellation
// tests cancel from it mid-search.
func WithScanHook(cfg Config, hook func()) Config {
	cfg.scan = func(s *searcher, h int) (ctree.Path, int, int64) {
		hook()
		return s.densestCellCached(h)
	}
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

// LevelIndexes returns the level index a run over trees builds
// (ctree.UnionLevelIndexes), failing t on an error.
func LevelIndexes(t testing.TB, trees ...*ctree.Tree) []*ctree.LevelIndex {
	t.Helper()
	idx, err := ctree.UnionLevelIndexes(trees...)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// IndexBytes is the footprint of a level index, as a run adds it to
// its trees' arenas in Result.TreeMemoryBytes.
func IndexBytes(idx []*ctree.LevelIndex) uint64 { return indexBytes(idx) }

// WindowTrees builds a window of two trees from a stream of points: the
// older half in an aging tree, the Union a pass writes of the runs the
// service's ingest built from it in batches of batch points
// (AddBatches), and the newer half in an active tree built at once, the
// shape of a service warm-started from a snapshot. A pass clusters the
// two as they are (Run over both); WindowTree unites them. Shared by
// the package's internal and external tests.
func WindowTrees(t testing.TB, pts [][]float64, d, H, batch int) (aging, active *ctree.Tree) {
	t.Helper()
	aging, err := ctree.Union(AddBatches(t, pts[:len(pts)/2], d, H, batch)...)
	if err != nil {
		t.Fatal(err)
	}
	if active, err = ctree.Build(&dataset.Dataset{Dims: d, Points: pts[len(pts)/2:]}, H, ctree.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	return aging, active
}

// WindowTree is the window of WindowTrees united into one tree, the
// tree a snapshot of the window saves: Build's tree of the points at H
// levels, in Build's arena order.
func WindowTree(t testing.TB, pts [][]float64, d, H, batch int) *ctree.Tree {
	t.Helper()
	merged, err := ctree.Union(WindowTrees(t, pts, d, H, batch))
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// AddBatches counts pts into a run list by ctree.Runs.Add calls of
// batch points each, the way the streaming service ingests a stream.
func AddBatches(t testing.TB, pts [][]float64, d, H, batch int) ctree.Runs {
	t.Helper()
	var runs ctree.Runs
	for lo := 0; lo < len(pts); lo += batch {
		var err error
		if runs, err = runs.Add(pts[lo:min(lo+batch, len(pts))], d, H); err != nil {
			t.Fatal(err)
		}
	}
	return runs
}
