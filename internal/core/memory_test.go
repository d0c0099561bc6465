package core_test

import (
	"context"
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/synthetic"
)

// TestTreeMemoryAccountingSingleSource pins the arena-era memory
// accounting contract end to end:
//
//  1. MemoryBytes and IndexMemoryBytes are disjoint: materializing the
//     level indexes leaves the arena's own footprint unchanged, and the
//     pipeline's reported TreeMemoryBytes is exactly their sum — the
//     pre-arena double count (MemoryBytes already folding the indexes
//     in, then core adding IndexMemoryBytes on top) stays dead.
//  2. Stats.ArenaBytes is the arena slab figure alone, so
//     TreeBytes - ArenaBytes == IndexMemoryBytes holds in the
//     observability record too.
func TestTreeMemoryAccountingSingleSource(t *testing.T) {
	ds, _, err := synthetic.Generate(synthetic.Config{
		Dims: 8, Points: 6000, Clusters: 3, NoiseFrac: 0.1,
		MinClusterDim: 4, MaxClusterDim: 7, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ctree.Build(ds, 5, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}

	arenaBefore := tr.MemoryBytes()
	tr.EnsureLevelIndexes()
	if got := tr.MemoryBytes(); got != arenaBefore {
		t.Fatalf("building level indexes changed MemoryBytes: %d -> %d (indexes must be accounted separately)", arenaBefore, got)
	}
	if tr.IndexMemoryBytes() == 0 {
		t.Fatal("IndexMemoryBytes == 0 after EnsureLevelIndexes")
	}

	res, err := core.RunOnTree(tr, ds, core.Config{H: tr.H, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	wantTree := tr.MemoryBytes() + tr.IndexMemoryBytes()
	if res.TreeMemoryBytes != wantTree {
		t.Fatalf("TreeMemoryBytes=%d, want MemoryBytes+IndexMemoryBytes=%d", res.TreeMemoryBytes, wantTree)
	}
	if res.Stats == nil {
		t.Fatal("CollectStats run returned nil Stats")
	}
	if res.Stats.TreeBytes != wantTree {
		t.Fatalf("Stats.TreeBytes=%d, want %d", res.Stats.TreeBytes, wantTree)
	}
	if res.Stats.ArenaBytes != tr.MemoryBytes() {
		t.Fatalf("Stats.ArenaBytes=%d, want arena MemoryBytes=%d", res.Stats.ArenaBytes, tr.MemoryBytes())
	}
	if res.Stats.TreeBytes-res.Stats.ArenaBytes != tr.IndexMemoryBytes() {
		t.Fatalf("TreeBytes-ArenaBytes=%d, want IndexMemoryBytes=%d",
			res.Stats.TreeBytes-res.Stats.ArenaBytes, tr.IndexMemoryBytes())
	}
}

// TestArenaStatsRecorded pins the new observability counters: a full
// pipeline run must report the build's batch-insertion shape (every
// point arrives through a sorted run) and a consistent arena footprint,
// at every worker count (shard merges accumulate, not reset).
func TestArenaStatsRecorded(t *testing.T) {
	ds, _, err := synthetic.Generate(synthetic.Config{
		Dims: 6, Points: 9000, Clusters: 3, NoiseFrac: 0.1,
		MinClusterDim: 3, MaxClusterDim: 5, Seed: 78,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		res, err := core.Run(ds, core.Config{Workers: workers, CollectStats: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		c := res.Stats.Counters
		if c.BatchRuns <= 0 {
			t.Fatalf("workers=%d: BatchRuns=%d, want > 0", workers, c.BatchRuns)
		}
		if c.BatchRunPoints != int64(len(ds.Points)) {
			t.Fatalf("workers=%d: BatchRunPoints=%d, want every point batched (%d)",
				workers, c.BatchRunPoints, len(ds.Points))
		}
		if c.BatchRuns > c.BatchRunPoints {
			t.Fatalf("workers=%d: more runs (%d) than points (%d)", workers, c.BatchRuns, c.BatchRunPoints)
		}
		if res.Stats.ArenaBytes == 0 || res.Stats.ArenaBytes >= res.Stats.TreeBytes {
			t.Fatalf("workers=%d: ArenaBytes=%d vs TreeBytes=%d: want 0 < arena < tree",
				workers, res.Stats.ArenaBytes, res.Stats.TreeBytes)
		}
	}
}

// TestLevelIndexPhaseRecorded pins the levelIndex row of the stats
// record: a run over a fresh tree times the index build there, a rerun
// over the same tree reads the index cached on it and records much less
// time than the build, and a run over several trees (whose union index
// is built for each run) records the build and its allocation. The
// β-search row no longer includes the index: the top-level rows,
// levelIndex among them, add up to the total.
func TestLevelIndexPhaseRecorded(t *testing.T) {
	ds, _, err := synthetic.Generate(synthetic.Config{
		Dims: 10, Points: 20000, Clusters: 3, NoiseFrac: 0.1,
		MinClusterDim: 5, MaxClusterDim: 8, Seed: 79,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ctree.Build(ds, 4, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{H: tr.H, CollectStats: true}
	first, err := core.RunOnTree(tr, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rerun, err := core.RunOnTree(tr, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	built, cached := first.Stats.LevelIndex, rerun.Stats.LevelIndex
	if built.Spans != 1 || built.WallNS <= 0 || built.AllocBytes == 0 {
		t.Fatalf("the first run's levelIndex row is %+v, want one timed span that allocates", built)
	}
	if cached.Spans != 1 || cached.WallNS >= built.WallNS {
		t.Fatalf("the rerun's cached index recorded %+v, want one span shorter than the build's %v", cached, built.Wall())
	}
	st := first.Stats
	if sum := st.TreeBuild.Wall() + st.LevelIndex.Wall() + st.BetaSearch.Wall() + st.ClusterMerge.Wall() + st.Labeling.Wall(); st.TotalWall() != sum {
		t.Fatalf("TotalWall %v, the top-level rows sum to %v", st.TotalWall(), sum)
	}
	half := ds.Len() / 2
	a, err := ctree.Build(subset(ds, 0, half), 4, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctree.Build(subset(ds, half, ds.Len()), 4, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	union, err := core.RunTreeContext(context.Background(), []*ctree.Tree{a, b}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row := union.Stats.LevelIndex; row.Spans != 1 || row.WallNS <= 0 || row.AllocBytes == 0 {
		t.Fatalf("the union run's levelIndex row is %+v, want one timed span that allocates", row)
	}
}

// subset returns the points [lo, hi) of ds as a dataset of its own.
func subset(ds *dataset.Dataset, lo, hi int) *dataset.Dataset {
	out := dataset.New(ds.Dims, hi-lo)
	for _, p := range ds.Points[lo:hi] {
		out.Append(p)
	}
	return out
}
