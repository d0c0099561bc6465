package ctree

import (
	"fmt"
	"math/rand"
	"testing"

	"mrcc/internal/dataset"
	"mrcc/internal/obs"
)

// buildConfig is one row of the Build configuration table: its options
// and the number of spill runs it must report.
type buildConfig struct {
	name string
	opt  BuildOptions
	runs int64
}

// checkBuildsAgree pins the one-build contract for the configurations
// that configs returns for an n-point dataset: each builds the same
// tree as per-point insertion, cell for cell, with the written-once
// footprint of its cells (MemoryBytes), in canonical arena order and
// with arena columns identical to the in-memory build at the default
// worker count. It runs on both the packed single-word key layout and
// the multi-word layout (d·(H-1) > 64).
func checkBuildsAgree(t *testing.T, configs func(n int) []buildConfig) {
	t.Helper()
	for _, s := range []struct{ d, H, n int }{
		{4, 4, 20_000},  // packed keys
		{15, 6, 20_000}, // 15·5 = 75 > 64: multi-word keys
	} {
		ds := uniformDataset(t, s.d, s.n, int64(s.d))
		oracle := New(s.d, s.H)
		for _, p := range ds.Points {
			if err := oracle.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		ref, err := Build(ds, s.H, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range configs(s.n) {
			name := fmt.Sprintf("d=%d/%s", s.d, c.name)
			got, st, err := buildCounted(ds, s.H, c.opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !treesEqual(t, oracle, got) {
				t.Fatalf("%s: tree diverged from per-point insertion", name)
			}
			if want := stateBytes(s.d, int(got.CellCount())+1); got.MemoryBytes() != want {
				t.Fatalf("%s: MemoryBytes %d, want the written-once footprint %d", name, got.MemoryBytes(), want)
			}
			if !got.scanCanonical() {
				t.Fatalf("%s: build is not in canonical arena order", name)
			}
			if !sameColumns(ref.Columns(), got.Columns()) {
				t.Fatalf("%s: arena columns differ from the in-memory build", name)
			}
			if st.SpillRuns != c.runs || (st.SpillBytes > 0) != (c.runs > 0) {
				t.Fatalf("%s: spill counters (%d, %d), want (%d, >0 iff spilled)", name, st.SpillRuns, st.SpillBytes, c.runs)
			}
			if st.BatchRunPoints != int64(s.n) || st.BatchRuns == 0 {
				t.Fatalf("%s: batch counters (%d, %d), want every point in a run", name, st.BatchRuns, st.BatchRunPoints)
			}
		}
	}
}

// buildCounted is Build with a collector: it returns the tree and the
// counters the build reported.
func buildCounted(ds *dataset.Dataset, H int, opt BuildOptions) (*Tree, obs.BuildCounters, error) {
	col := obs.New()
	opt.Collector = col
	t, err := Build(ds, H, opt)
	return t, col.Finish().Counters.BuildCounters, err
}

// TestBuildParallelEqualsBuild checks the in-memory build at several
// worker counts against per-point insertion.
func TestBuildParallelEqualsBuild(t *testing.T) {
	checkBuildsAgree(t, func(int) []buildConfig {
		return []buildConfig{
			{"workers=1", BuildOptions{Workers: 1}, 0},
			{"workers=2", BuildOptions{Workers: 2}, 0},
			{"workers=3", BuildOptions{Workers: 3}, 0},
			{"workers=8", BuildOptions{Workers: 8}, 0},
			{"workers=gomaxprocs", BuildOptions{}, 0},
		}
	})
}

// TestBuildExternalEqualsBuildParallel checks the spilled build in one,
// two, seven, several multi-block and 64+ runs (the merge's many-stream
// path) against per-point insertion and the in-memory build.
func TestBuildExternalEqualsBuildParallel(t *testing.T) {
	checkBuildsAgree(t, func(n int) []buildConfig {
		return []buildConfig{
			{"spill/1run", BuildOptions{SpillDir: t.TempDir()}, 1},
			{"spill/2runs", BuildOptions{SpillDir: t.TempDir(), runPoints: n / 2}, 2},
			{"spill/7runs", BuildOptions{SpillDir: t.TempDir(), runPoints: (n + 6) / 7}, 7},
			{"spill/multiblock", BuildOptions{SpillDir: t.TempDir(), runPoints: 3 * spillBlock}, int64((n + 3*spillBlock - 1) / (3 * spillBlock))},
			{"spill/67runs", BuildOptions{SpillDir: t.TempDir(), runPoints: 300}, 67},
		}
	})
}

// TestBuildParallelOptsMatchesBuild pins the forwarder under the former
// name: for several worker counts it builds the same arena as Build.
func TestBuildParallelOptsMatchesBuild(t *testing.T) {
	ds := uniformDataset(t, 6, 5000, 1)
	want, err := Build(ds, 4, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := BuildParallelOpts(ds, 4, BuildOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !sameColumns(want.Columns(), got.Columns()) || got.MemoryBytes() != want.MemoryBytes() {
			t.Fatalf("workers=%d: BuildParallelOpts tree differs from Build", workers)
		}
	}
}

// sameColumns reports whether two trees' arena columns are identical,
// row for row.
func sameColumns(a, b Columns) bool {
	if a.Rows() != b.Rows() || len(a.P) != len(b.P) {
		return false
	}
	for r := 0; r < a.Rows(); r++ {
		if a.Loc[r] != b.Loc[r] || a.N[r] != b.N[r] || a.Used[r] != b.Used[r] ||
			a.Level[r] != b.Level[r] || a.Parent[r] != b.Parent[r] {
			return false
		}
	}
	for i := range a.P {
		if a.P[i] != b.P[i] {
			return false
		}
	}
	return true
}

// TestBuildShardSplitEdges covers the worker split's edges: more
// workers than points, and point counts that leave the last worker a
// short shard.
func TestBuildShardSplitEdges(t *testing.T) {
	for _, n := range []int{1, 5, 17} {
		ds := uniformDataset(t, 3, n, int64(n))
		want, err := Build(ds, 4, BuildOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8, 64} {
			got, err := Build(ds, 4, BuildOptions{Workers: workers})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if !sameColumns(want.Columns(), got.Columns()) || got.Eta != n {
				t.Fatalf("n=%d workers=%d: tree differs from the one-worker build", n, workers)
			}
		}
	}
}

// TestBuildRepeatedPathPastLeafBuffer counts one stored path repeated
// far past the count loop's buildReportEvery-record leaf buffer, so the
// loop flushes the same key more than once: into a tree that started
// empty, where new cells are appended without a lookup, a repeat must
// append none. Both key layouts, in memory at Workers 1 and 2, spilled
// in one run and in runs that split the repeated path, and one
// InsertBatch call into an empty tree must equal per-point insertion,
// each with the written-once footprint of its cells; the in-memory
// builds must also size their arena once.
func TestBuildRepeatedPathPastLeafBuffer(t *testing.T) {
	for _, s := range []struct {
		name string
		d, H int
	}{
		{"packed", 4, 4},
		{"multiword", 15, 6}, // 15·5 = 75 > 64
	} {
		rng := rand.New(rand.NewSource(int64(s.d)))
		spread := uniformDataset(t, s.d, 3000, 71).Points
		// 2·buildReportEvery+100 points inside one level-(H-1) cell: one
		// stored path, with both level-H halves on every axis.
		side := SideLen(s.H - 1)
		corner := make([]float64, s.d)
		for j := range corner {
			corner[j] = float64(rng.Intn(1<<(s.H-1))) * side
		}
		pts := append([][]float64(nil), spread[:1500]...)
		for i := 0; i < 2*buildReportEvery+100; i++ {
			p := make([]float64, s.d)
			for j := range p {
				p[j] = corner[j] + rng.Float64()*side
			}
			pts = append(pts, p)
		}
		pts = append(pts, spread[1500:]...)
		ds := &dataset.Dataset{Dims: s.d, Points: pts}

		oracle := New(s.d, s.H)
		for _, p := range pts {
			if err := oracle.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			name     string
			opt      BuildOptions
			inMemory bool
		}{
			{"workers=1", BuildOptions{Workers: 1}, true},
			{"workers=2", BuildOptions{Workers: 2}, true},
			{"spilled/one-run", BuildOptions{SpillDir: t.TempDir()}, false},
			{"spilled/split-runs", BuildOptions{SpillDir: t.TempDir(), runPoints: buildReportEvery}, false},
			{"insertbatch", BuildOptions{}, false},
		} {
			name := s.name + "/" + c.name
			var got *Tree
			var st obs.BuildCounters
			var err error
			if c.name == "insertbatch" {
				got = New(s.d, s.H)
				err = got.InsertBatch(pts)
			} else {
				got, st, err = buildCounted(ds, s.H, c.opt)
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !treesEqual(t, oracle, got) || got.CellCount() != oracle.CellCount() {
				t.Fatalf("%s: %d cells, per-point insertion %d; trees differ", name, got.CellCount(), oracle.CellCount())
			}
			if want := stateBytes(s.d, int(got.CellCount())+1); got.MemoryBytes() != want {
				t.Fatalf("%s: MemoryBytes %d, want the footprint of its path %d", name, got.MemoryBytes(), want)
			}
			if g := st.ArenaGrows; c.inMemory && g != 0 {
				t.Fatalf("%s: arena grew %d times, want 0", name, g)
			}
		}
	}
}
