package ctree

import (
	"context"
	"errors"
	"os"
	"testing"

	"mrcc/internal/dataset"
	"mrcc/internal/obs"
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

// TestBuildExternalCancel pins cooperative cancellation in both
// phases: a pre-cancelled context aborts during the spill, a context
// cancelled from the progress callback aborts mid-merge; both leave
// the spill directory empty.
func TestBuildExternalCancel(t *testing.T) {
	dir := t.TempDir()
	ds := uniformDataset(t, 4, 30_000, 23)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Build(ds, 4, BuildOptions{Ctx: cancelled, SpillDir: dir})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: got %v, want context.Canceled", err)
	}

	ctx, cancelMid := context.WithCancel(context.Background())
	_, err = Build(ds, 4, BuildOptions{
		Ctx: ctx,
		// Progress only fires from the merge loop: cancelling here
		// aborts mid-merge.
		Collector: obs.New(func(obs.Phase, int64, int64) { cancelMid() }),
		SpillDir:  dir,
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

// TestBuildExternalProgress pins that the collector's progress reaches
// (n, n) exactly once the merge completes.
func TestBuildExternalProgress(t *testing.T) {
	const n = 20_000
	ds := uniformDataset(t, 3, n, 41)
	var last int64
	calls := 0
	_, err := Build(ds, 4, BuildOptions{
		Collector: obs.New(func(p obs.Phase, done, total int64) {
			if p != obs.PhaseTreeBuild || total != n {
				t.Fatalf("progress %s of total %d, want treeBuild of %d", p, total, n)
			}
			if done < last {
				t.Fatalf("progress went backwards: %d after %d", done, last)
			}
			last = done
			calls++
		}),
		SpillDir:  t.TempDir(),
		runPoints: 6000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != n || calls == 0 {
		t.Fatalf("progress ended at %d/%d after %d calls, want %d", last, n, calls, n)
	}
}
