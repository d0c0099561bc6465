package ctree

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mrcc/internal/dataset"
)

// TestBuildExternalDuplicateHeavy forces long equal-path groups that
// span run boundaries and the group-flush window.
func TestBuildExternalDuplicateHeavy(t *testing.T) {
	base := uniformDataset(t, 3, 5, 99)
	ds := dataset.New(3, 30_000)
	for i := 0; i < 30_000; i++ {
		ds.Append(base.Points[i%len(base.Points)])
	}
	want, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Build(ds, 4, BuildOptions{runPoints: 9000, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !treesEqual(t, want, got) {
		t.Fatal("duplicate-heavy external build diverged")
	}
	if wm, gm := want.MemoryBytes(), got.MemoryBytes(); wm != gm {
		t.Fatalf("MemoryBytes diverged: %d vs %d", wm, gm)
	}
}

// TestBuildExternalMemoryBudget pins the MemoryLimitBytes derivation:
// a budget of ~1/10 of the sort buffer an in-memory build holds yields
// multiple runs, and the build still completes with the exact
// in-memory tree.
func TestBuildExternalMemoryBudget(t *testing.T) {
	const n = 60_000
	ds := uniformDataset(t, 5, n, 31)
	want, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	streamBytes := uint64(n * ExternalRecordBytes(5, 4))
	got, st, err := buildCounted(ds, 4, BuildOptions{MemoryLimitBytes: streamBytes / 10, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if st.SpillRuns < 2 {
		t.Fatalf("budget of 1/10 the stream produced %d runs, want several", st.SpillRuns)
	}
	if !treesEqual(t, want, got) {
		t.Fatal("budgeted external build diverged from the in-memory build")
	}
	if wm, gm := want.MemoryBytes(), got.MemoryBytes(); wm != gm {
		t.Fatalf("MemoryBytes diverged: %d vs %d", wm, gm)
	}
}

// TestBuildExternalCleansSpillDir pins the no-orphan contract on the
// success path: after the build the caller's spill directory is empty
// again.
func TestBuildExternalCleansSpillDir(t *testing.T) {
	dir := t.TempDir()
	ds := uniformDataset(t, 4, 10_000, 17)
	if _, err := Build(ds, 4, BuildOptions{runPoints: 2500, SpillDir: dir}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill dir holds %d orphan entries after a successful build", len(entries))
	}
}

// spilledCtx reports cancellation once a spill run is on disk under
// dir, so the first build checkpoint that sees it is the merge's.
type spilledCtx struct {
	context.Context
	dir string
}

func (c spilledCtx) Err() error {
	if runs, _ := filepath.Glob(filepath.Join(c.dir, "*", "run-*.spill")); len(runs) > 0 {
		return context.Canceled
	}
	return nil
}

// TestBuildExternalCancel pins cooperative cancellation in both
// phases: a pre-cancelled context aborts during the spill, a context
// cancelled once the run is on disk aborts mid-merge; both leave the
// spill directory empty.
func TestBuildExternalCancel(t *testing.T) {
	dir := t.TempDir()
	ds := uniformDataset(t, 4, 30_000, 23)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Build(ds, 4, BuildOptions{Ctx: cancelled, SpillDir: dir})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: got %v, want context.Canceled", err)
	}

	// The one run is written after its sort's last checkpoint, so this
	// context first reads cancelled in the merge.
	_, err = Build(ds, 4, BuildOptions{
		Ctx:      spilledCtx{Context: context.Background(), dir: dir},
		SpillDir: dir,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-merge cancel: got %v, want context.Canceled", err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill dir holds %d orphan entries after cancelled builds", len(entries))
	}
}

// TestBuildExternalValidation pins the spill-specific refusals: an
// invalid point aborts the spill with the in-memory build's error, and
// an unwritable spill parent fails fast. (The geometry checks are
// shared with every configuration: TestBuildRejectsBadInput.)
func TestBuildExternalValidation(t *testing.T) {
	bad := uniformDataset(t, 2, 20_000, 1)
	bad.Points[12_345] = []float64{0.5, 1.5}
	_, want := Build(bad, 4, BuildOptions{})
	_, err := Build(bad, 4, BuildOptions{runPoints: 5000, SpillDir: t.TempDir()})
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("out-of-cube point: spilled build got %v, in-memory %v", err, want)
	}
	ds := uniformDataset(t, 3, 10, 1)
	if _, err := Build(ds, 4, BuildOptions{SpillDir: "/nonexistent/dir/for/mrcc"}); err == nil {
		t.Error("unwritable spill parent accepted")
	}
}
