//go:build fault

// Fault-injection suite (DESIGN.md §8): built only with -tags=fault,
// it proves the four robustness properties the harness exists for —
// every injection point aborts the pipeline into a typed
// *PipelineError, all goroutines drain on every error path, the
// caller's dataset is never mutated by an aborted run, and an armed
// but unfired point changes nothing about the output.
package core_test

import (
	"context"
	"errors"
	"os"
	"reflect"
	"runtime"
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/fault"
	"mrcc/internal/obs"
	"mrcc/internal/panics"
)

// faultPoints maps every core-pipeline injection point to the phase a
// *PipelineError must name when the point fires. spill marks the tree
// build's points, which the out-of-core build (ExternalSpillDir) polls
// too.
var faultPoints = []struct {
	point string
	phase obs.Phase
	spill bool
}{
	{fault.BuildChunk, obs.PhaseTreeBuild, true},
	{fault.BuildMerge, obs.PhaseTreeBuild, true},
	{fault.ScanPass, obs.PhaseBetaSearch, false},
	{fault.ScanLevel, obs.PhaseBetaSearch, false},
	{fault.ScanChunk, obs.PhaseBetaSearch, false},
	{fault.BetaTest, obs.PhaseBetaSearch, false},
	{fault.Merge, obs.PhaseClusterMerge, false},
	{fault.LabelChunk, obs.PhaseLabeling, false},
}

// faultConfigs are the pipeline configurations every point is armed
// under: serial, parallel, and — for the build's points — spilled.
var faultConfigs = []struct {
	name    string
	workers int
	spill   bool
}{
	{"workers=1", 1, false},
	{"workers=8", 8, false},
	{"spill", 8, true},
}

// TestInjectedFaultAbortsCleanly arms every injection point in turn,
// across worker counts and the spilled build, and demands: a
// *PipelineError naming the point's phase, the armed cause reachable
// via errors.Is, partial stats marked Aborted, no goroutine leaks, an
// unmutated dataset and an empty spill directory.
func TestInjectedFaultAbortsCleanly(t *testing.T) {
	ds := robustDS(t)
	snapshot := ds.Clone()
	boom := errors.New("injected failure")
	for _, tc := range faultPoints {
		for _, c := range faultConfigs {
			if c.spill && !tc.spill {
				continue
			}
			t.Run(tc.point+"/"+c.name, func(t *testing.T) {
				t.Cleanup(fault.Reset)
				baseline := runtime.NumGoroutine()
				cfg := core.Config{Workers: c.workers, CollectStats: true}
				if c.spill {
					cfg.ExternalSpillDir = t.TempDir()
				}
				fault.Set(tc.point, func() error { return boom })
				res, err := core.Run(context.Background(), core.Input{Dataset: ds}, cfg)
				if res != nil {
					t.Fatal("faulted run returned a result")
				}
				var pe *core.PipelineError
				if !errors.As(err, &pe) {
					t.Fatalf("want *PipelineError, got %T: %v", err, err)
				}
				if !errors.Is(err, boom) {
					t.Fatalf("armed cause not reachable: %v", err)
				}
				var fe *fault.Error
				if !errors.As(err, &fe) || fe.Point != tc.point {
					t.Fatalf("fault.Error missing or wrong point: %v", err)
				}
				if pe.Phase != tc.phase.String() {
					t.Fatalf("phase %q, want %q", pe.Phase, tc.phase)
				}
				if pe.Stats == nil || pe.Stats.Aborted != pe.Phase {
					t.Fatalf("partial stats missing or unmarked: %+v", pe.Stats)
				}
				checkGoroutinesDrained(t, baseline)
				if !reflect.DeepEqual(ds.Points, snapshot.Points) {
					t.Fatal("aborted run mutated the caller's dataset")
				}
				if c.spill {
					if entries, err := os.ReadDir(cfg.ExternalSpillDir); err != nil || len(entries) != 0 {
						t.Fatalf("aborted spilled run left %d entries in the spill dir (err=%v)", len(entries), err)
					}
				}
			})
		}
	}
}

// TestInjectedPanicIsContained arms points with panics instead of
// errors: worker goroutines must recover them (no WaitGroup deadlock,
// no process crash) and the run must fail with a *PipelineError
// wrapping a *panics.Error that carries the stack.
func TestInjectedPanicIsContained(t *testing.T) {
	ds := robustDS(t)
	for _, point := range []string{fault.BuildChunk, fault.ScanChunk, fault.LabelChunk} {
		for _, workers := range []int{1, 8} {
			t.Run(point+"/workers="+string(rune('0'+workers)), func(t *testing.T) {
				t.Cleanup(fault.Reset)
				baseline := runtime.NumGoroutine()
				fault.Set(point, func() error { panic("poisoned chunk") })
				_, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{Workers: workers})
				var pe *core.PipelineError
				if !errors.As(err, &pe) {
					t.Fatalf("want *PipelineError, got %T: %v", err, err)
				}
				var pa *panics.Error
				if !errors.As(err, &pa) {
					t.Fatalf("panic not surfaced as *panics.Error: %v", err)
				}
				if pa.Value != "poisoned chunk" {
					t.Fatalf("panic value = %v", pa.Value)
				}
				if len(pa.Stack) == 0 {
					t.Fatal("panic error carries no stack")
				}
				checkGoroutinesDrained(t, baseline)
			})
		}
	}
}

// TestArmedButUnfiredFaultChangesNothing proves the harness itself is
// inert until a trigger actually fires: arming every point far beyond
// the run's hit count yields a bit-identical result.
func TestArmedButUnfiredFaultChangesNothing(t *testing.T) {
	t.Cleanup(fault.Reset)
	ds := robustDS(t)
	want, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range faultPoints {
		fault.SetAfter(tc.point, 1<<30, func() error { return errors.New("never") })
	}
	got, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{Workers: 4})
	if err != nil {
		t.Fatalf("armed-but-unfired run failed: %v", err)
	}
	if !reflect.DeepEqual(got.Labels, want.Labels) || !reflect.DeepEqual(got.Betas, want.Betas) {
		t.Fatal("armed-but-unfired run changed the clustering")
	}
}

// TestEveryPointIsWired proves a clean parallel run actually polls
// every injection point — a regression guard against checkpoints
// silently falling out of the pipeline.
func TestEveryPointIsWired(t *testing.T) {
	t.Cleanup(fault.Reset)
	fault.Reset()
	ds := robustDS(t)
	if _, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range faultPoints {
		if fault.Hits(tc.point) == 0 {
			t.Errorf("injection point %s was never polled", tc.point)
		}
	}
}
