package core_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/obs"
	"mrcc/internal/synthetic"
)

// robustDS is the shared dataset of the robustness tests: large enough
// that every parallel path (build shards, scan chunks, labeling
// ranges) actually fans out.
func robustDS(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 8, Points: 12000, Clusters: 3, NoiseFrac: 0.15,
		MinClusterDim: 4, MaxClusterDim: 6, Seed: 99,
	})
	return ds
}

// checkGoroutinesDrained polls until the goroutine count returns to
// (near) the baseline, failing the test if worker goroutines leaked.
// The small tolerance absorbs runtime-internal goroutines (GC, timer).
func checkGoroutinesDrained(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunContextPreCancelled proves an already-cancelled context is
// observed at the very first checkpoint, for every worker count, and
// surfaces as a typed *PipelineError carrying the phase and partial
// stats.
func TestRunContextPreCancelled(t *testing.T) {
	ds := robustDS(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 8} {
		baseline := runtime.NumGoroutine()
		res, err := core.Run(ctx, core.Input{Dataset: ds}, core.Config{Workers: workers, CollectStats: true})
		if res != nil {
			t.Fatalf("workers=%d: aborted run returned a result", workers)
		}
		var pe *core.PipelineError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want *PipelineError, got %T: %v", workers, err, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cause is not context.Canceled: %v", workers, err)
		}
		if pe.Phase != obs.PhaseTreeBuild.String() {
			t.Fatalf("workers=%d: phase %q, want %q", workers, pe.Phase, obs.PhaseTreeBuild)
		}
		if pe.Stats == nil || pe.Stats.Aborted != pe.Phase {
			t.Fatalf("workers=%d: partial stats missing or unmarked: %+v", workers, pe.Stats)
		}
		checkGoroutinesDrained(t, baseline)
	}
}

// TestRunContextCancelMidScan cancels from a scan hook once the
// β-search starts, proving mid-pipeline cancellation aborts within
// bounded work, names the right phase, and leaks no goroutines.
func TestRunContextCancelMidScan(t *testing.T) {
	ds := robustDS(t)
	for _, workers := range []int{1, 8} {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cfg := core.WithScanHook(core.Config{Workers: workers}, cancel)
		res, err := core.Run(ctx, core.Input{Dataset: ds}, cfg)
		cancel()
		if res != nil {
			t.Fatalf("workers=%d: cancelled run returned a result", workers)
		}
		var pe *core.PipelineError
		if !errors.As(err, &pe) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want *PipelineError(context.Canceled), got %v", workers, err)
		}
		if pe.Phase != obs.PhaseBetaSearch.String() {
			t.Fatalf("workers=%d: phase %q, want %q", workers, pe.Phase, obs.PhaseBetaSearch)
		}
		checkGoroutinesDrained(t, baseline)
	}
}

// TestRunContextDeadline proves deadline expiry surfaces as
// context.DeadlineExceeded through the *PipelineError wrapper.
func TestRunContextDeadline(t *testing.T) {
	ds := robustDS(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, err := core.Run(ctx, core.Input{Dataset: ds}, core.Config{Workers: 4})
	var pe *core.PipelineError
	if !errors.As(err, &pe) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want *PipelineError(context.DeadlineExceeded), got %v", err)
	}
}

// TestMemoryLimitResourceError proves an impossible budget returns a
// typed *ResourceError (not a PipelineError) on every worker count.
func TestMemoryLimitResourceError(t *testing.T) {
	ds := robustDS(t)
	for _, workers := range []int{1, 2, 8} {
		_, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{
			Workers: workers, MemoryLimitBytes: 4096,
		})
		var re *core.ResourceError
		if !errors.As(err, &re) {
			t.Fatalf("workers=%d: want *ResourceError, got %T: %v", workers, err, err)
		}
		if re.Degraded || re.H != core.DefaultH || re.LimitBytes != 4096 {
			t.Fatalf("workers=%d: malformed ResourceError %+v", workers, re)
		}
		var pe *core.PipelineError
		if errors.As(err, &pe) {
			t.Fatalf("workers=%d: ResourceError must not be wrapped in PipelineError", workers)
		}
	}
}

// treeFootprint builds the Counting-tree at resolution h and returns
// the authoritative footprint the memory limit is checked against
// (tree + level indexes).
func treeFootprint(t *testing.T, ds *dataset.Dataset, h int) uint64 {
	t.Helper()
	tr, err := ctree.Build(ds, h, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tr.MemoryBytes() + core.IndexBytes(core.LevelIndexes(t, tr))
}

// TestDegradeOnMemoryLimit pins the deterministic degradation
// contract: a limit that admits H=3 but not H=4 makes the run fall
// back to exactly the H=3 result, records DegradedH, and does so
// identically for every worker count.
func TestDegradeOnMemoryLimit(t *testing.T) {
	ds := robustDS(t)
	f3 := treeFootprint(t, ds, 3)
	f4 := treeFootprint(t, ds, 4)
	if f3 >= f4 {
		t.Fatalf("footprints not ordered: H=3 needs %d, H=4 needs %d", f3, f4)
	}
	limit := f3 // admits H=3 (est > limit trips), refuses H=4
	want, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{H: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{
			H: 4, Workers: workers,
			MemoryLimitBytes:     limit,
			DegradeOnMemoryLimit: true,
			CollectStats:         true,
		})
		if err != nil {
			t.Fatalf("workers=%d: degraded run failed: %v", workers, err)
		}
		if got.Stats == nil || got.Stats.DegradedH != 3 {
			t.Fatalf("workers=%d: DegradedH not recorded: %+v", workers, got.Stats)
		}
		if !reflect.DeepEqual(got.Labels, want.Labels) {
			t.Fatalf("workers=%d: degraded labels differ from a plain H=3 run", workers)
		}
		if !reflect.DeepEqual(got.Betas, want.Betas) {
			t.Fatalf("workers=%d: degraded β-clusters differ from a plain H=3 run", workers)
		}
	}
	// Degradation has a floor: a limit under even the smallest H fails
	// with a ResourceError reporting the floor resolution.
	_, err = core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{
		H: 4, MemoryLimitBytes: 4096, DegradeOnMemoryLimit: true,
	})
	var re *core.ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("want *ResourceError below the floor, got %v", err)
	}
	if !re.Degraded || re.H != ctree.MinLevels {
		t.Fatalf("floor ResourceError malformed: %+v", re)
	}
}

// TestWorkersErrorPathNoLeak proves an organic failure (unnormalized
// input) with many workers passes through un-wrapped and leaves no
// goroutines behind.
func TestWorkersErrorPathNoLeak(t *testing.T) {
	ds := robustDS(t).Clone()
	ds.Points[len(ds.Points)/2][0] = 1.5 // outside [0,1): the build must refuse it
	baseline := runtime.NumGoroutine()
	_, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{Workers: 8})
	if err == nil {
		t.Fatal("unnormalized dataset accepted")
	}
	var pe *core.PipelineError
	if errors.As(err, &pe) {
		t.Fatalf("organic error must pass through unwrapped, got %v", err)
	}
	checkGoroutinesDrained(t, baseline)
}

// TestAbortDoesNotMutateDataset proves an aborted run leaves the
// caller's points bit-identical — cancellation lands between chunks,
// never mid-write into shared data.
func TestAbortDoesNotMutateDataset(t *testing.T) {
	ds := robustDS(t)
	snapshot := ds.Clone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.Run(ctx, core.Input{Dataset: ds}, core.Config{Workers: 8}); err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if !reflect.DeepEqual(ds.Points, snapshot.Points) {
		t.Fatal("aborted run mutated the caller's dataset")
	}
}
