package mrcc_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mrcc"
)

// TestSaveLoadTreeWarmStart pins the facade's snapshot workflow: keep
// the tree from one run, persist it with SaveTree, restore it with
// LoadTree in (what would be) another process, and recluster on it
// with Run (Input.Tree) — same β-clusters, clusters and labels as the
// original run, with no tree build.
func TestSaveLoadTreeWarmStart(t *testing.T) {
	rows := twoClusterRows(1, 400)
	ds, err := mrcc.DatasetFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	norm := ds.Clone()
	if _, _, err := norm.Normalize(); err != nil {
		t.Fatal(err)
	}
	first, err := mrcc.Run(context.Background(), mrcc.Input{Dataset: norm}, mrcc.Config{KeepTree: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.Tree == nil {
		t.Fatal("KeepTree run returned no tree")
	}

	path := filepath.Join(t.TempDir(), "tree.snap")
	wrote, err := mrcc.SaveTree(path, first.Tree)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != wrote {
		t.Fatalf("SaveTree reported %d bytes, file holds %d", wrote, fi.Size())
	}

	loaded, err := mrcc.LoadTree(path)
	if err != nil {
		t.Fatal(err)
	}
	// No run writes a tree, so the loaded tree is the one the first run
	// built.
	warm, err := mrcc.Run(context.Background(), mrcc.Input{Dataset: norm, Tree: loaded}, mrcc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Timings.BuildTree != 0 {
		t.Fatal("warm-started run reports tree-build time")
	}
	if !reflect.DeepEqual(first.Labels, warm.Labels) {
		t.Fatal("warm-started run labeled points differently")
	}
	if len(first.Clusters) != len(warm.Clusters) || len(first.Betas) != len(warm.Betas) {
		t.Fatalf("warm-started run found %d clusters / %d betas, original %d / %d",
			len(warm.Clusters), len(warm.Betas), len(first.Clusters), len(first.Betas))
	}
	if len(first.Betas) == 0 {
		t.Fatal("degenerate dataset: no β-clusters, warm-start equivalence is vacuous")
	}
}

// TestRunOnTreeNormalizesLikeBuild pins that Run normalizes with a
// tree as it does without one: a raw-scale dataset reclustered on the
// tree a raw-scale run kept is labeled exactly as that run labeled it,
// because both runs embed the same points the same way. A run over a
// tree still needs its dataset.
func TestRunOnTreeNormalizesLikeBuild(t *testing.T) {
	ds, err := mrcc.DatasetFromRows(twoClusterRows(500, 600))
	if err != nil {
		t.Fatal(err)
	}
	first, err := mrcc.Run(context.Background(), mrcc.Input{Dataset: ds}, mrcc.Config{KeepTree: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.NumClusters() == 0 {
		t.Fatal("degenerate dataset: no clusters, the relabeling check is vacuous")
	}
	again, err := mrcc.Run(context.Background(), mrcc.Input{Dataset: ds, Tree: first.Tree}, mrcc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Labels, again.Labels) {
		t.Fatal("a raw-scale dataset on its own tree labeled differently from the build run")
	}
	if _, err := mrcc.Run(context.Background(), mrcc.Input{Tree: first.Tree}, mrcc.Config{}); err == nil {
		t.Fatal("a run over a tree with no dataset was accepted")
	}
}

// TestStreamingLoopShape pins the exact loop examples/streaming and
// the mrcc-serve service run, expressed through the facade: grow one
// tree with InsertBatch, recluster on it after every batch with no
// manual Used-flag handling, and carry the tree across a
// SaveTree/LoadTree hand-off at the end. The final warm run must match
// the last in-loop run exactly.
func TestStreamingLoopShape(t *testing.T) {
	rows := twoClusterRows(1, 400)
	tree, err := mrcc.NewTree(len(rows[0]), mrcc.DefaultH)
	if err != nil {
		t.Fatal(err)
	}
	seen := mrcc.NewDataset(len(rows[0]), len(rows))

	var last *mrcc.Result
	const batch = 300
	for start := 0; start < len(rows); start += batch {
		end := min(start+batch, len(rows))
		if err := tree.InsertBatch(rows[start:end]); err != nil {
			t.Fatal(err)
		}
		for _, p := range rows[start:end] {
			seen.Append(p)
		}
		// Nothing to reset between iterations: a run writes nothing it
		// reads.
		last, err = mrcc.Run(context.Background(), mrcc.Input{Dataset: seen, Tree: tree}, mrcc.Config{})
		if err != nil {
			t.Fatalf("batch ending at %d: %v", end, err)
		}
	}
	if len(last.Betas) == 0 {
		t.Fatal("degenerate stream: final pass found no β-clusters")
	}

	// Snapshot hand-off, exactly as the example ends.
	path := filepath.Join(t.TempDir(), "stream.snap")
	if _, err := mrcc.SaveTree(path, tree); err != nil {
		t.Fatal(err)
	}
	loaded, err := mrcc.LoadTree(path)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := mrcc.Run(context.Background(), mrcc.Input{Dataset: seen, Tree: loaded}, mrcc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(last.Labels, warm.Labels) {
		t.Fatal("warm run after the snapshot hand-off labeled points differently")
	}
	if len(last.Clusters) != len(warm.Clusters) || len(last.Betas) != len(warm.Betas) {
		t.Fatalf("warm run found %d clusters / %d betas, final loop pass %d / %d",
			len(warm.Clusters), len(warm.Betas), len(last.Clusters), len(last.Betas))
	}
}

// TestNilOrZeroTreeRefused pins that the calls that need a
// Counting-tree refuse a nil or zero Tree with an error, never a panic.
// A nil Input.Tree asks Run to build the tree, so Run refuses it only
// for want of a dataset.
func TestNilOrZeroTreeRefused(t *testing.T) {
	ds, err := mrcc.DatasetFromRows(twoClusterRows(1, 50))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tree.snap")
	for _, tree := range []*mrcc.Tree{nil, {}} {
		if _, err := mrcc.SaveTree(path, tree); err == nil {
			t.Errorf("SaveTree(%#v) returned no error", tree)
		}
		if err := tree.InsertBatch([][]float64{{0.5, 0.5}}); err == nil {
			t.Errorf("(%#v).InsertBatch returned no error", tree)
		}
		if tree.Points() != 0 || tree.MemoryBytes() != 0 {
			t.Errorf("%#v reports %d points in %d bytes", tree, tree.Points(), tree.MemoryBytes())
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a refused SaveTree left %s behind: %v", path, err)
	}
	ctx := context.Background()
	if _, err := mrcc.Run(ctx, mrcc.Input{Dataset: ds, Tree: &mrcc.Tree{}}, mrcc.Config{}); err == nil {
		t.Error("Run over a zero Tree returned no error")
	}
	if _, err := mrcc.Run(ctx, mrcc.Input{Tree: nil}, mrcc.Config{}); err == nil {
		t.Error("Run with a nil Tree and no dataset returned no error")
	}
}

// TestLoadTreeTypedError pins that a corrupt snapshot surfaces as a
// *TreeFormatError through the facade.
func TestLoadTreeTypedError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(path, []byte("MRCCTREE but truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := mrcc.LoadTree(path)
	var fe *mrcc.TreeFormatError
	if !errors.As(err, &fe) {
		t.Fatalf("LoadTree on garbage returned %v, want a *TreeFormatError", err)
	}
}
