package core_test

import (
	"context"
	"os"
	"strings"
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/synthetic"
)

// TestExternalBuildSameClustering pins the ISSUE's acceptance
// criterion at the pipeline level: a run whose Counting-tree was built
// out-of-core under a sort-buffer budget of roughly 1/10 of the record
// stream produces a Result — β-clusters, correlation clusters, labels —
// identical to the in-memory run's, and reports its spill traffic in
// Stats.
func TestExternalBuildSameClustering(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{Dims: 6, Points: 9000, Clusters: 3,
		NoiseFrac: 0.15, MinClusterDim: 3, MaxClusterDim: 5, Seed: 29})

	inMem, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{CollectStats: true})
	if err != nil {
		t.Fatalf("in-memory run: %v", err)
	}
	// ~56 bytes/record at d=6, H=4: a 50 KB budget forces several runs.
	ext, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{
		CollectStats:     true,
		ExternalSpillDir: t.TempDir(),
		MemoryLimitBytes: 50 << 10,
	})
	if err != nil {
		t.Fatalf("external run: %v", err)
	}
	assertResultsIdentical(t, inMem, ext)
	if len(inMem.Betas) == 0 {
		t.Fatal("degenerate dataset: no β-clusters found, equivalence is vacuous")
	}
	if inMem.TreeMemoryBytes != ext.TreeMemoryBytes {
		t.Fatalf("tree footprint diverged: in-memory %d, external %d",
			inMem.TreeMemoryBytes, ext.TreeMemoryBytes)
	}
	if sr := ext.Stats.Counters.SpillRuns; sr < 2 {
		t.Fatalf("external run reports %d spill runs, want several under a tight budget", sr)
	}
	if ext.Stats.Counters.SpillBytes <= 0 {
		t.Fatal("external run reports no spill bytes")
	}
	if sr := inMem.Stats.Counters.SpillRuns; sr != 0 {
		t.Fatalf("in-memory run reports %d spill runs", sr)
	}
	if !strings.Contains(ext.Stats.Format(), "spill runs") {
		t.Fatal("Stats.Format omits the external-build line")
	}
}

// TestExternalBuildCleansSpillDir pins the no-orphan contract through
// the pipeline: the caller's spill directory is empty again after the
// run.
func TestExternalBuildCleansSpillDir(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{Dims: 4, Points: 4000, Clusters: 2,
		NoiseFrac: 0.1, MinClusterDim: 2, MaxClusterDim: 3, Seed: 31})
	dir := t.TempDir()
	if _, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{ExternalSpillDir: dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("run left %d orphan entries in the spill dir", len(entries))
	}
}

// TestKeepTree pins Config.KeepTree: the run hands back the tree it
// clustered on, and a run over it reproduces the clustering.
func TestKeepTree(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{Dims: 5, Points: 5000, Clusters: 2,
		NoiseFrac: 0.1, MinClusterDim: 3, MaxClusterDim: 4, Seed: 37})
	first, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{KeepTree: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.Tree == nil {
		t.Fatal("KeepTree run returned a nil Tree")
	}
	without, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if without.Tree != nil {
		t.Fatal("default run returned a non-nil Tree")
	}
	rerun, err := core.Run(context.Background(), core.Input{Dataset: ds, Trees: []*ctree.Tree{first.Tree}}, core.Config{})
	if err != nil {
		t.Fatalf("rerun on kept tree: %v", err)
	}
	assertResultsIdentical(t, first, rerun)
}

// TestExternalSpillDirValidation pins the config conflicts: the degrade
// ladder is meaningless out-of-core, and a bogus spill parent fails
// fast.
func TestExternalSpillDirValidation(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{Dims: 3, Points: 500, Clusters: 1,
		NoiseFrac: 0.1, MinClusterDim: 2, MaxClusterDim: 2, Seed: 41})
	_, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{
		ExternalSpillDir:     t.TempDir(),
		DegradeOnMemoryLimit: true,
		MemoryLimitBytes:     1 << 20,
	})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("DegradeOnMemoryLimit+ExternalSpillDir: got %v, want the conflict error", err)
	}
	if _, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{ExternalSpillDir: "/nonexistent/mrcc/spill"}); err == nil {
		t.Fatal("unwritable spill parent accepted")
	}
}
