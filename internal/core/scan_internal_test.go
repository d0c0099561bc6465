package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/synthetic"
)

// scanPairTree builds one shared tree for two searchers — the naive
// re-convolving scan and the cached skip-scan — so per-pass winners can
// be compared cell-pointer for cell-pointer.
func scanPairTree(t *testing.T, gen synthetic.Config, h int) (*ctree.Tree, *dataset.Dataset) {
	t.Helper()
	ds, _, err := synthetic.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ctree.Build(ds, h, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, ds
}

// searcherOver returns a searcher over the level indexes idx, as
// runOnTreeAbortable sets one up; searchers over one idx share no flag,
// each keeping its own used flags, as each run does.
func searcherOver(idx []*ctree.LevelIndex, cfg Config, workers int) *searcher {
	return &searcher{idx: idx, d: idx[0].D, cfg: cfg, workers: workers}
}

// newScanPair returns (naive, cached) searchers over the same tree's
// level indexes. Both run serial; parallel chunking is pinned elsewhere
// (TestScanCacheEquivalence, TestParallelEquivalence).
func newScanPair(t testing.TB, tr *ctree.Tree, fullMask bool) (*searcher, *searcher) {
	idx := LevelIndexes(t, tr)
	naive := searcherOver(idx, WithNaiveScan(Config{fullMask: fullMask}), 1)
	cached := searcherOver(idx, Config{fullMask: fullMask}, 1)
	return naive, cached
}

// betaFromCell builds a β-cluster box covering exactly the cell at p,
// mimicking what a successful testCell would add.
func betaFromCell(d int, p ctree.Path) BetaCluster {
	b := BetaCluster{L: make([]float64, d), U: make([]float64, d), Level: p.Level(), Center: p.Clone()}
	for j := 0; j < d; j++ {
		b.L[j], b.U[j] = p.Bounds(j)
	}
	return b
}

// TestDensestCellCachedMatchesNaivePerPass steps the restart loop by
// hand: on every pass and every level, the cached skip-scan must return
// the same cell (by level-index entry), path, and mask value as the
// naive argmax re-scan — including after Used flags flip and
// β-clusters join the overlap set. This is the per-pass pin the
// end-to-end equivalence suite cannot give (it only sees final
// results).
//
// The window and two-tree cases run on the streaming service's merged
// window tree and on the index over the window's two trees, as a pass
// reads them, over a duplicate-heavy
// stream on which many cells tie on value: the cached scan breaks those
// ties by level-index entry, the naive scan by Path.Compare, so the two
// agree only while the index lists every level in path order.
func TestDensestCellCachedMatchesNaivePerPass(t *testing.T) {
	for _, full := range []bool{false, true} {
		name := "face"
		if full {
			name = "full"
		}
		t.Run(name, func(t *testing.T) {
			tr, _ := scanPairTree(t, synthetic.Config{
				Dims: 5, Points: 5000, Clusters: 3, NoiseFrac: 0.15,
				MinClusterDim: 3, MaxClusterDim: 5, Seed: 210,
			}, 5)
			naive, cached := newScanPair(t, tr, full)
			if hits, _ := stepScanPair(t, naive, cached); hits < 5 {
				t.Fatalf("only %d scan winners exercised; per-pass pin is too weak", hits)
			}
		})
	}
	window, pair := duplicateTrees(t)
	for name, srcs := range map[string][]*ctree.Tree{"window": {window}, "two-tree": pair} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				idx := LevelIndexes(t, srcs...)
				naive := searcherOver(idx, WithNaiveScan(Config{Workers: workers}), workers)
				cached := searcherOver(idx, Config{Workers: workers}, workers)
				hits, ties := stepScanPair(t, naive, cached)
				if hits < 5 || ties < 5 {
					t.Fatalf("%d scan winners, %d of them tied with the previous winner of their level; the tie-break pin is too weak", hits, ties)
				}
			})
		}
	}
}

// stepScanPair runs up to 40 restart passes over the indexed levels
// 2..H-1 with both searchers, which share one index, failing on the
// first pass whose winners differ. Each winner is marked used in both
// searchers, and every third becomes a β-cluster in both, so the
// overlap-skip path diverges from the used path and gets pinned too. It
// returns the number of winners and how many of them had the same value
// as the previous winner of their level.
func stepScanPair(t *testing.T, naive, cached *searcher) (hits, ties int) {
	t.Helper()
	last := make(map[int]int64)
	for pass := 0; pass < 40; pass++ {
		progressed := false
		for h := 2; h <= len(naive.idx); h++ {
			np, nc, nv := naive.densestCell(h)
			cp, cc, cv := cached.densestCell(h)
			if nc != cc {
				t.Fatalf("pass %d level %d: winners differ: naive %v (entry %d), cached %v (entry %d)",
					pass, h, np, nc, cp, cc)
			}
			if nc < 0 {
				continue
			}
			if np.Compare(cp) != 0 {
				t.Fatalf("pass %d level %d: paths differ: naive %v, cached %v", pass, h, np, cp)
			}
			if nv != cv {
				t.Fatalf("pass %d level %d: values differ at %v: naive %d, cached %d",
					pass, h, np, nv, cv)
			}
			if v, ok := last[h]; ok && v == nv {
				ties++
			}
			last[h] = nv
			// Mark the common winner used in both searchers, exactly as
			// findBetaClusters does after a scan.
			naive.markUsed(h, nc)
			cached.markUsed(h, nc)
			progressed = true
			hits++
			if hits%3 == 0 {
				b := betaFromCell(naive.d, np)
				naive.betas = append(naive.betas, b)
				cached.betas = append(cached.betas, b)
			}
		}
		if !progressed {
			break
		}
	}
	return hits, ties
}

// duplicateTrees builds a duplicate-heavy stream — 600 distinct points,
// each sent six times, in shuffled order — into the streaming service's
// merged window tree (WindowTree) and into the window's two trees
// (WindowTrees), H = 5, batches of 200. Cells
// holding one repeated point and no stored face neighbor all share one
// mask value, so the scans meet long runs of ties.
func duplicateTrees(t *testing.T) (window *ctree.Tree, pair []*ctree.Tree) {
	t.Helper()
	ds, _, err := synthetic.Generate(synthetic.Config{
		Dims: 5, Points: 600, Clusters: 2, NoiseFrac: 0.3,
		MinClusterDim: 3, MaxClusterDim: 5, Seed: 214,
	})
	if err != nil {
		t.Fatal(err)
	}
	var pts [][]float64
	for rep := 0; rep < 6; rep++ {
		pts = append(pts, ds.Points...)
	}
	rng := rand.New(rand.NewSource(215))
	rng.Shuffle(len(pts), func(a, b int) { pts[a], pts[b] = pts[b], pts[a] })
	aging, active := WindowTrees(t, pts, ds.Dims, 5, 200)
	return WindowTree(t, pts, ds.Dims, 5, 200), []*ctree.Tree{aging, active}
}

// TestDensestCellAllBetaOverlapped is the every-cell-β-overlapped edge
// case: a β-cluster spanning [0,1]^d makes every cell ineligible, and
// both scans must report an empty level identically.
func TestDensestCellAllBetaOverlapped(t *testing.T) {
	tr, _ := scanPairTree(t, synthetic.Config{
		Dims: 4, Points: 2000, Clusters: 2, NoiseFrac: 0.1,
		MinClusterDim: 2, MaxClusterDim: 4, Seed: 211,
	}, 4)
	naive, cached := newScanPair(t, tr, false)
	cube := BetaCluster{L: make([]float64, tr.D), U: make([]float64, tr.D)}
	for j := range cube.U {
		cube.U[j] = 1
	}
	naive.betas = append(naive.betas, cube)
	cached.betas = append(cached.betas, cube)
	for h := 2; h <= tr.H-1; h++ {
		if _, nc, _ := naive.densestCell(h); nc >= 0 {
			t.Fatalf("level %d: naive scan found entry %d despite full-cube β-overlap", h, nc)
		}
		if _, cc, _ := cached.densestCell(h); cc >= 0 {
			t.Fatalf("level %d: cached scan found entry %d despite full-cube β-overlap", h, cc)
		}
	}
}

// TestCacheRepairMatchesFullRebuildPerPass steps the restart loop by
// hand with THREE searchers over one tree — naive, cached-with-repair
// (the default) and cached-without-repair (WithoutCacheRepair) — and
// demands identical winners on every pass and level while Used flags
// flip and β-clusters accumulate. This pins the repair cursor at scan
// granularity, which the end-to-end sweep cannot (it only sees final
// results).
func TestCacheRepairMatchesFullRebuildPerPass(t *testing.T) {
	tr, _ := scanPairTree(t, synthetic.Config{
		Dims: 5, Points: 5000, Clusters: 3, NoiseFrac: 0.15,
		MinClusterDim: 3, MaxClusterDim: 5, Seed: 212,
	}, 5)
	idx := LevelIndexes(t, tr)
	naive := searcherOver(idx, WithNaiveScan(Config{}), 1)
	repaired := searcherOver(idx, Config{}, 1)
	rebuilt := searcherOver(idx, WithoutCacheRepair(Config{}), 1)
	hits := 0
	for pass := 0; pass < 40; pass++ {
		progressed := false
		for h := 2; h <= tr.H-1; h++ {
			np, nc, nv := naive.densestCell(h)
			rp, rc, rv := repaired.densestCell(h)
			fp, fc, fv := rebuilt.densestCell(h)
			if nc != rc || nc != fc {
				t.Fatalf("pass %d level %d: winners differ: naive entry %d, repaired entry %d, rebuilt entry %d",
					pass, h, nc, rc, fc)
			}
			if nc < 0 {
				continue
			}
			if np.Compare(rp) != 0 || np.Compare(fp) != 0 || nv != rv || nv != fv {
				t.Fatalf("pass %d level %d: path/value mismatch: naive (%v,%d), repaired (%v,%d), rebuilt (%v,%d)",
					pass, h, np, nv, rp, rv, fp, fv)
			}
			naive.markUsed(h, nc)
			repaired.markUsed(h, nc)
			rebuilt.markUsed(h, nc)
			progressed = true
			hits++
			if hits%3 == 0 {
				b := betaFromCell(tr.D, np)
				naive.betas = append(naive.betas, b)
				repaired.betas = append(repaired.betas, b)
				rebuilt.betas = append(rebuilt.betas, b)
			}
		}
		if !progressed {
			break
		}
	}
	if hits < 5 {
		t.Fatalf("only %d scan winners exercised; per-pass pin is too weak", hits)
	}
}

// TestCacheRepairAllCellsFlipInOnePass is the adversarial repair case:
// between two scans of one level, EVERY cell flips ineligible at once
// (a [0,1]^d β-cluster lands in the overlap set). The repair cursor
// must retire the entire order in that single pass — the scan comes
// back empty, the cursor sits at the end — and the pass after that
// must answer from the cursor alone without re-examining any entry.
func TestCacheRepairAllCellsFlipInOnePass(t *testing.T) {
	tr, _ := scanPairTree(t, synthetic.Config{
		Dims: 4, Points: 2000, Clusters: 2, NoiseFrac: 0.1,
		MinClusterDim: 2, MaxClusterDim: 4, Seed: 213,
	}, 4)
	idx := LevelIndexes(t, tr)
	s := searcherOver(idx, Config{}, 1)
	const h = 2
	// Pass 1: a fresh level must yield a winner and leave the cursor at
	// its position (nothing before it was skipped on a fresh tree).
	if _, c, _ := s.densestCellCached(h); c < 0 {
		t.Fatal("fresh level found no densest cell")
	}
	// The flip: every cell of every level becomes β-overlapping.
	cube := BetaCluster{L: make([]float64, tr.D), U: make([]float64, tr.D)}
	for j := range cube.U {
		cube.U[j] = 1
	}
	s.betas = append(s.betas, cube)
	n := idx[h-1].Len()
	if _, c, _ := s.densestCellCached(h); c >= 0 {
		t.Fatalf("level %d: found entry %d despite full-cube β-overlap", h, c)
	}
	sc := s.scans[h]
	if int(sc.start) != n {
		t.Fatalf("repair cursor sits at %d after the all-flip pass, want %d (whole order retired)", sc.start, n)
	}
	// Pass 3: the retired prefix is never re-examined — the scan must
	// answer "empty" straight from the cursor. Poison the β list so any
	// overlap re-check would now (wrongly) report eligibility; a correct
	// cursor never consults it.
	s.betas = s.betas[:0]
	if _, c, _ := s.densestCellCached(h); c >= 0 {
		t.Fatalf("level %d: retired entry resurfaced after the β list was cleared (entry %d): cursor not honored", h, c)
	}
}

// TestDensestCellSingleCellLevel pins both scans on a level of exactly
// one cell: the lone cell must win, then — once used — the level must
// come back empty from both.
func TestDensestCellSingleCellLevel(t *testing.T) {
	ds := &dataset.Dataset{Dims: 3}
	for i := 0; i < 200; i++ {
		ds.Points = append(ds.Points, []float64{0.001, 0.002, 0.003})
	}
	tr, err := ctree.Build(ds, 4, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	naive, cached := newScanPair(t, tr, false)
	for h := 2; h <= tr.H-1; h++ {
		if n := naive.idx[h-1].Len(); n != 1 {
			t.Fatalf("level %d stores %d cells, want 1", h, n)
		}
		np, nc, nv := naive.densestCell(h)
		cp, cc, cv := cached.densestCell(h)
		if nc < 0 || nc != cc || np.Compare(cp) != 0 || nv != cv {
			t.Fatalf("level %d: single-cell winners differ: naive (%v,%d,%d), cached (%v,%d,%d)",
				h, np, nc, nv, cp, cc, cv)
		}
		naive.markUsed(h, nc)
		cached.markUsed(h, nc)
		if _, nc2, _ := naive.densestCell(h); nc2 >= 0 {
			t.Fatalf("level %d: naive scan re-found the used lone cell", h)
		}
		if _, cc2, _ := cached.densestCell(h); cc2 >= 0 {
			t.Fatalf("level %d: cached scan re-found the used lone cell", h)
		}
	}
}

// TestLevelScanHeapPopsSortedOrder pins the lazy scan order against the
// full sort it replaced: popping a level's heap to the end must give
// its entries sorted by (value desc, entry index asc), as
// slices.SortFunc orders them. It runs on every level of a Build tree,
// of the duplicate-heavy window tree and of the index over the
// window's two trees (long runs of value ties), of a tree
// whose levels hold one cell each, and of an empty tree, whose heaps
// are empty.
func TestLevelScanHeapPopsSortedOrder(t *testing.T) {
	built, _ := scanPairTree(t, synthetic.Config{
		Dims: 5, Points: 5000, Clusters: 3, NoiseFrac: 0.15,
		MinClusterDim: 3, MaxClusterDim: 5, Seed: 216,
	}, 5)
	single := &dataset.Dataset{Dims: 3}
	for i := 0; i < 200; i++ {
		single.Points = append(single.Points, []float64{0.001, 0.002, 0.003})
	}
	singleTree, err := ctree.Build(single, 4, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	window, pair := duplicateTrees(t)
	for _, c := range []struct {
		name string
		srcs []*ctree.Tree
		size func(n int) bool // the level size the case is about
	}{
		{"build", []*ctree.Tree{built}, func(n int) bool { return n > 1 }},
		{"window", []*ctree.Tree{window}, func(n int) bool { return n > 1 }},
		{"two-tree", pair, func(n int) bool { return n > 1 }},
		{"single-cell", []*ctree.Tree{singleTree}, func(n int) bool { return n == 1 }},
		{"empty", []*ctree.Tree{ctree.New(3, 4)}, func(n int) bool { return n == 0 }},
	} {
		s := searcherOver(LevelIndexes(t, c.srcs...), Config{}, 1)
		ties := 0
		for h := 1; h <= len(s.idx); h++ {
			sc, err := s.levelScan(h)
			if err != nil {
				t.Fatal(err)
			}
			n := len(sc.vals)
			if !c.size(n) {
				t.Fatalf("%s level %d has %d entries; the case is vacuous", c.name, h, n)
			}
			want := make([]int32, n)
			for i := range want {
				want[i] = int32(i)
			}
			slices.SortFunc(want, func(a, b int32) int {
				if sc.vals[a] != sc.vals[b] {
					return cmp.Compare(sc.vals[b], sc.vals[a])
				}
				return cmp.Compare(a, b)
			})
			for sc.pop() {
			}
			if len(sc.heap) != 0 || !slices.Equal(sc.order, want) {
				t.Fatalf("%s level %d: popped %d of %d entries, in an order other than the sort's",
					c.name, h, len(sc.order), n)
			}
			for i := 1; i < n; i++ {
				if sc.vals[want[i]] == sc.vals[want[i-1]] {
					ties++
				}
			}
		}
		if (c.name == "window" || c.name == "two-tree") && ties < 100 {
			t.Fatalf("%s: only %d value ties; the tie-break pin is too weak", c.name, ties)
		}
	}
}
