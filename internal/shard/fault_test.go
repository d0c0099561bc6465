//go:build fault

package shard

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mrcc/internal/ctree"
	"mrcc/internal/fault"
	"mrcc/internal/treeio"
)

// faultFixture builds a small sharded run's inputs: a CSV, 2 workers
// and 4 jobs. It returns the job set and the directory holding the
// input (for the orphan check).
func faultFixture(t *testing.T) (addrs []string, jobs []Job, dir string) {
	t.Helper()
	path, _ := writeTestCSV(t, 4, 2000, 77, false)
	jobs, err := JobsForCSV(path, false, 4, Job{H: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return startWorkers(t, 2), jobs, filepath.Dir(path)
}

// assertOnlyInput demands the input directory still hold exactly the
// one CSV: an aborted run must not strand temp files anywhere it
// touched.
func assertOnlyInput(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "points.csv" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("input dir holds %v, want only points.csv", names)
	}
}

// TestWorkerDiesMidStream arms shard.stream so one worker tears its
// snapshot stream after the ok status: the coordinator must surface a
// typed *WorkerError naming the shard (not hang, not decode garbage),
// and a subsequent run over the same workers must succeed — the fleet
// is not poisoned.
func TestWorkerDiesMidStream(t *testing.T) {
	t.Cleanup(fault.Reset)
	addrs, jobs, dir := faultFixture(t)
	boom := errors.New("worker crashed")
	fault.Set(fault.ShardStream, func() error { return boom })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _, err := Run(ctx, Options{Addrs: addrs, Jobs: jobs})
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("got %v, want *WorkerError", err)
	}
	if we.Shard < 0 || we.Shard >= len(jobs) || we.Addr == "" {
		t.Fatalf("worker error does not name the failing shard/addr: %+v", we)
	}
	if hits := fault.Hits(fault.ShardStream); hits < 1 {
		t.Fatalf("shard.stream polled %d times", hits)
	}
	assertOnlyInput(t, dir)

	// The fault disarmed itself; the same fleet completes the retry.
	trees, stats, err := Run(ctx, Options{Addrs: addrs, Jobs: jobs})
	if err != nil {
		t.Fatalf("retry after the injected crash: %v", err)
	}
	if stats.Points != 2000 || len(trees) != len(jobs) || stats.ShardsBuilt != len(jobs) {
		t.Fatalf("retry built %d points over %d shards", stats.Points, stats.ShardsBuilt)
	}
}

// TestCorruptSnapshotRefused covers the corrupt-shard-tree paths: a
// worker handed a corrupted snapshot file refuses the job, and a
// coordinator receiving corrupted stream bytes rejects them — both as
// typed errors at the coordinator.
func TestCorruptSnapshotRefused(t *testing.T) {
	t.Cleanup(fault.Reset)
	_, ds := writeTestCSV(t, 3, 500, 11, false)
	tr, err := ctree.Build(ds, 4, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snap := filepath.Join(dir, "shard0.snap")
	if _, err := treeio.SaveFile(snap, tr, treeio.Meta{}); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first column.
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	raw[treeio.HeaderSize+9] ^= 0x20
	if err := os.WriteFile(snap, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	addrs := startWorkers(t, 1)
	jobs, err := JobsForPaths([]string{snap}, KindSnapshot, false, Job{H: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Run(context.Background(), Options{Addrs: addrs, Jobs: jobs})
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("corrupt snapshot: got %v, want *WorkerError", err)
	}
}
