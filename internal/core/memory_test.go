package core_test

import (
	"context"
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/obs"
	"mrcc/internal/synthetic"
)

// TestTreeMemoryAccountingSingleSource pins the arena-era memory
// accounting contract end to end:
//
//  1. The arena's MemoryBytes and the level index's footprint are
//     disjoint: building an index over the tree leaves the arena's own
//     footprint unchanged, and the pipeline's reported
//     TreeMemoryBytes is exactly their sum — the pre-arena double count
//     (MemoryBytes already folding the indexes in, then core adding
//     them on top) stays dead.
//  2. Stats.ArenaBytes is the arena slab figure alone, so
//     TreeBytes - ArenaBytes is the index's footprint in the
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
	index := core.IndexBytes(core.LevelIndexes(t, tr))
	if got := tr.MemoryBytes(); got != arenaBefore {
		t.Fatalf("building level indexes changed MemoryBytes: %d -> %d (indexes must be accounted separately)", arenaBefore, got)
	}
	if index == 0 {
		t.Fatal("the level index over the tree reports 0 bytes")
	}

	res, err := core.Run(context.Background(), core.Input{Dataset: ds, Trees: []*ctree.Tree{tr}}, core.Config{H: tr.H, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	wantTree := tr.MemoryBytes() + index
	if res.TreeMemoryBytes != wantTree {
		t.Fatalf("TreeMemoryBytes=%d, want the arena plus the index=%d", res.TreeMemoryBytes, wantTree)
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
	if res.Stats.TreeBytes-res.Stats.ArenaBytes != index {
		t.Fatalf("TreeBytes-ArenaBytes=%d, want the index's %d",
			res.Stats.TreeBytes-res.Stats.ArenaBytes, index)
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
		res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{Workers: workers, CollectStats: true})
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

// TestGivenTreesReportNoBuildCounters pins that the build counters
// describe the run's own build: a run over trees it was given — a built
// tree, a union, or a run list grown batch by batch, as the streaming
// service and the facade's Tree pass — builds nothing and reports them
// all zero, whatever builds and unions made the trees.
func TestGivenTreesReportNoBuildCounters(t *testing.T) {
	ds, _, err := synthetic.Generate(synthetic.Config{
		Dims: 6, Points: 6000, Clusters: 3, NoiseFrac: 0.1,
		MinClusterDim: 3, MaxClusterDim: 5, Seed: 84,
	})
	if err != nil {
		t.Fatal(err)
	}
	built, err := ctree.Build(ds, 4, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var runs ctree.Runs
	for lo := 0; lo < ds.Len(); lo += 500 {
		if runs, err = runs.Add(ds.Points[lo:min(lo+500, ds.Len())], ds.Dims, 4); err != nil {
			t.Fatal(err)
		}
	}
	union, err := ctree.Union(runs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		trees []*ctree.Tree
	}{{"built", []*ctree.Tree{built}}, {"union", []*ctree.Tree{union}}, {"runs", runs}} {
		res, err := core.Run(context.Background(), core.Input{Dataset: ds, Trees: c.trees}, core.Config{H: 4, CollectStats: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := res.Stats.Counters.BuildCounters; got != (obs.BuildCounters{}) {
			t.Errorf("%s: a run that built no tree reports build counters %+v", c.name, got)
		}
	}
}

// TestLevelIndexPhaseRecorded pins the levelIndex row of the stats
// record: every run builds the index it searches once, in that phase —
// a run over a given tree, a rerun over the same tree (nothing caches
// the first run's index), a run that builds its tree, one that builds
// it under a memory limit (which checks the arena plus that same index)
// and a run over several trees. Each records one levelIndex span that
// allocates at least the index it reports (TreeBytes − ArenaBytes).
// The β-search and tree-build rows leave the index out: the top-level
// rows, levelIndex among them, add up to the total.
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
	half := ds.Len() / 2
	a, err := ctree.Build(subset(ds, 0, half), 4, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctree.Build(subset(ds, half, ds.Len()), 4, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{H: tr.H, CollectStats: true}
	limited := cfg
	limited.MemoryLimitBytes = 1 << 30
	for _, c := range []struct {
		name string
		in   core.Input
		cfg  core.Config
	}{
		{"given tree", core.Input{Dataset: ds, Trees: []*ctree.Tree{tr}}, cfg},
		{"rerun", core.Input{Dataset: ds, Trees: []*ctree.Tree{tr}}, cfg},
		{"built", core.Input{Dataset: ds}, cfg},
		{"built under a memory limit", core.Input{Dataset: ds}, limited},
		{"union", core.Input{Trees: []*ctree.Tree{a, b}}, cfg},
	} {
		res, err := core.Run(context.Background(), c.in, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		st := res.Stats
		index := st.TreeBytes - st.ArenaBytes
		if row := st.LevelIndex; row.Spans != 1 || row.WallNS <= 0 || index == 0 || row.AllocBytes < index {
			t.Fatalf("%s: the levelIndex row is %+v, want one timed span that allocates at least the %d-byte index", c.name, row, index)
		}
		if sum := st.TreeBuild.Wall() + st.LevelIndex.Wall() + st.BetaSearch.Wall() + st.ClusterMerge.Wall() + st.Labeling.Wall(); st.TotalWall() != sum {
			t.Fatalf("%s: TotalWall %v, the top-level rows sum to %v", c.name, st.TotalWall(), sum)
		}
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

// TestRunOverSeveralTreesKeepsNoTree pins that a run over several trees
// hands back no tree, with or without KeepTree: the union index it
// clustered is not a tree, so Result.Tree stays nil and a caller that
// holds the Result (the streaming service publishes it in its view)
// keeps none of the trees reachable. A one-tree run with KeepTree
// returns its tree.
func TestRunOverSeveralTreesKeepsNoTree(t *testing.T) {
	ds, _, err := synthetic.Generate(synthetic.Config{
		Dims: 6, Points: 4000, Clusters: 2, NoiseFrac: 0.1,
		MinClusterDim: 3, MaxClusterDim: 5, Seed: 83,
	})
	if err != nil {
		t.Fatal(err)
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
	for _, keep := range []bool{false, true} {
		res, err := core.Run(context.Background(), core.Input{Trees: []*ctree.Tree{a, b}}, core.Config{H: 4, KeepTree: keep})
		if err != nil {
			t.Fatal(err)
		}
		if res.Tree != nil {
			t.Fatalf("KeepTree=%v: a run over two trees returned Result.Tree", keep)
		}
	}
	res, err := core.Run(context.Background(), core.Input{Trees: []*ctree.Tree{a}}, core.Config{H: 4, KeepTree: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree != a {
		t.Fatal("a one-tree run with KeepTree did not return its tree")
	}
}
