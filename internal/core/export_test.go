package core

import (
	"slices"
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

// WithoutCacheRepair returns cfg with the scan cache's incremental
// eligibility repair off: every restart pass re-walks each level's
// scan order from the top, the full-rebuild oracle the repair cursor
// is pinned against.
func WithoutCacheRepair(cfg Config) Config {
	cfg.scan = (*searcher).densestCellRewalk
	return cfg
}

// WindowTrees builds a window of two trees from a stream of points: the
// older half in an aging tree, the Union of a loaded first-touch arena
// (the tree a pass unites from retired runs), and the newer half in an
// active tree loaded from a first-touch arena (FirstTouchTree), the
// shape of a service warm-started from a snapshot an older release
// saved. A pass clusters the two as they are (Run over both);
// WindowTree merges them. Shared by the package's internal and
// external tests.
func WindowTrees(t testing.TB, pts [][]float64, d, H, batch int) (aging, active *ctree.Tree) {
	t.Helper()
	aging = FirstTouchTree(t, pts[:len(pts)/2], d, H, batch)
	active = FirstTouchTree(t, pts[len(pts)/2:], d, H, batch)
	aging, err := ctree.Union(aging)
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

// ServiceRuns builds the streaming service's window from a stream of
// points the way its ingest does: the newer half in active runs, each
// batch of batch points built into a tree of its own and the two newest
// runs united for as long as the newer holds at least half the older's
// points, followed by the aging tree of WindowTrees over the older
// half. A pass clusters them side by side (Run over all of them).
func ServiceRuns(t testing.TB, pts [][]float64, d, H, batch int) []*ctree.Tree {
	t.Helper()
	var runs []*ctree.Tree
	newer := pts[len(pts)/2:]
	for lo := 0; lo < len(newer); lo += batch {
		run, err := ctree.Build(&dataset.Dataset{Dims: d, Points: newer[lo:min(lo+batch, len(newer))]}, H, ctree.BuildOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
		for n := len(runs); n >= 2 && 2*runs[n-1].Eta >= runs[n-2].Eta; n-- {
			u, err := ctree.Union(runs[n-2], runs[n-1])
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs[:n-2], u)
		}
	}
	aging, _ := WindowTrees(t, pts, d, H, batch)
	return append(runs, aging)
}

// FirstTouchTree lists pts' cells in the arena order that an older
// release's InsertBatch calls of batch points wrote, and its snapshots
// still carry: Build's cells, each batch's new cells appended in the
// batch's path order after those of earlier batches, so a cell's
// children are in first-touch order rather than ascending by loc. It
// returns the tree loaded from those columns (ctree.NewFromColumns), as
// such a snapshot is, which the loader rewrites in canonical order.
// Shared by the package's internal and external tests.
func FirstTouchTree(t testing.TB, pts [][]float64, d, H, batch int) *ctree.Tree {
	t.Helper()
	built, err := ctree.Build(&dataset.Dataset{Dims: d, Points: pts}, H, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := built.Columns()
	order := []ctree.Ref{0}            // built rows in first-touch order
	row := make([]ctree.Ref, c.Rows()) // each built row's first-touch row
	scale := float64(uint64(1) << uint(H))
	for lo := 0; lo < len(pts); lo += batch {
		var paths []ctree.Path
		for _, p := range pts[lo:min(lo+batch, len(pts))] {
			path := make(ctree.Path, H-1)
			for h := 1; h < H; h++ {
				for j, v := range p {
					path[h-1] |= (uint64(v*scale) >> uint(H-h) & 1) << uint(j)
				}
			}
			paths = append(paths, path)
		}
		slices.SortFunc(paths, ctree.Path.Compare)
		for _, path := range paths {
			for h := 1; h < H; h++ {
				if r := built.CellAt(path[:h]); row[r] == 0 {
					row[r] = ctree.Ref(len(order))
					order = append(order, r)
				}
			}
		}
	}
	n := len(order)
	ft := ctree.Columns{
		Loc: make([]uint64, n), N: make([]int32, n), Used: make([]bool, n),
		Level: make([]uint8, n), Parent: make([]ctree.Ref, n), P: make([]int32, n*d),
	}
	for i, r := range order {
		ft.Loc[i], ft.N[i], ft.Used[i], ft.Level[i] = c.Loc[r], c.N[r], c.Used[r], c.Level[r]
		ft.Parent[i] = ctree.NilRef
		if i > 0 {
			ft.Parent[i] = row[c.Parent[r]]
		}
		copy(ft.P[i*d:(i+1)*d], c.P[int(r)*d:(int(r)+1)*d])
	}
	tr, err := ctree.NewFromColumns(d, H, built.Eta, ft)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
