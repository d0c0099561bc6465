//go:build fault

package ctree

import (
	"errors"
	"os"
	"testing"

	"mrcc/internal/fault"
)

// TestBuildExternalFaultLeavesNoOrphans arms the build's two injection
// points on the spilled path in turn — a sort chunk after runs are
// already on disk, and the merge — and demands the aborted build
// surface the armed cause as a *fault.Error and leave the spill
// directory empty: no orphan run files, no leftover temp directory.
func TestBuildExternalFaultLeavesNoOrphans(t *testing.T) {
	ds := uniformDataset(t, 4, 30_000, 51)
	boom := errors.New("injected failure")
	for _, tc := range []struct {
		point string
		after int
	}{
		{fault.BuildChunk, 1},
		{fault.BuildChunk, 3}, // run 0 (two chunks) is spilled when it fires
		{fault.BuildMerge, 1},
		{fault.BuildMerge, 2},
	} {
		t.Run(tc.point, func(t *testing.T) {
			t.Cleanup(fault.Reset)
			dir := t.TempDir()
			fault.SetAfter(tc.point, tc.after, func() error { return boom })
			_, err := Build(ds, 4, BuildOptions{
				SpillDir:  dir,
				runPoints: 10_000, // 3 runs: the merge phase is multi-way when it aborts
			})
			if !errors.Is(err, boom) {
				t.Fatalf("got %v, want the injected cause", err)
			}
			var fe *fault.Error
			if !errors.As(err, &fe) || fe.Point != tc.point {
				t.Fatalf("error %v is not a *fault.Error for %s", err, tc.point)
			}
			if hits := fault.Hits(tc.point); hits < tc.after {
				t.Fatalf("point %s polled %d times, want >= %d", tc.point, hits, tc.after)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 0 {
				names := make([]string, 0, len(entries))
				for _, e := range entries {
					names = append(names, e.Name())
				}
				t.Fatalf("aborted build left orphans in the spill dir: %v", names)
			}
		})
	}
}

// TestBuildExternalUnfiredFault pins the harness no-op property on the
// spilled path: an armed-but-unfired trigger (count beyond the build's
// checkpoints) changes nothing about the output.
func TestBuildExternalUnfiredFault(t *testing.T) {
	t.Cleanup(fault.Reset)
	ds := uniformDataset(t, 4, 9_000, 52)
	want, err := Build(ds, 4, BuildOptions{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	fault.SetAfter(fault.BuildChunk, 1_000_000, func() error { return errors.New("never") })
	fault.SetAfter(fault.BuildMerge, 1_000_000, func() error { return errors.New("never") })
	got, err := Build(ds, 4, BuildOptions{SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !treesEqual(t, want, got) {
		t.Fatal("armed-but-unfired fault changed the external build")
	}
}
