// Error taxonomy and the cooperative-abort helper of the robust
// pipeline (DESIGN.md §8).
//
// Three kinds of failure leave a run:
//
//   - *PipelineError wraps every *abort*: context cancellation, deadline
//     expiry, an injected fault, or a recovered worker panic. It names
//     the interrupted phase and carries the partial Stats collected up
//     to the abort, so an operator can see how far the run got.
//   - *ResourceError reports that Config.MemoryLimitBytes refused the
//     Counting-tree (after DegradeOnMemoryLimit exhausted its retries).
//   - Organic errors — invalid configuration, an unnormalized point, a
//     tree/dataset mismatch — pass through unwrapped, exactly as before
//     the robustness layer existed.
//
// The aborter is the per-run abort channel shared by every phase and
// every worker goroutine: the first failure wins, later checkpoints
// observe it through a single atomic load, and the coordinator converts
// it into the typed error after all goroutines drained.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mrcc/internal/fault"
	"mrcc/internal/obs"
	"mrcc/internal/panics"
)

// PipelineError reports a run aborted mid-flight — by context
// cancellation or deadline, an injected fault, or a contained worker
// panic. Unwrap yields the cause (e.g. context.Canceled), so callers
// keep using errors.Is/errors.As.
type PipelineError struct {
	// Phase names the pipeline phase that was interrupted (a
	// stable obs.Phase string: "treeBuild", "betaSearch", …).
	Phase string
	// Err is the underlying cause.
	Err error
	// Stats carries the partial observability record collected before
	// the abort; nil when the run collected no stats. Stats.Aborted
	// repeats Phase.
	Stats *obs.Stats
}

func (e *PipelineError) Error() string {
	return fmt.Sprintf("mrcc: pipeline aborted during %s: %v", e.Phase, e.Err)
}

func (e *PipelineError) Unwrap() error { return e.Err }

// ResourceError reports that the run's Counting-tree (including its
// flat level indexes) would exceed Config.MemoryLimitBytes, after any
// DegradeOnMemoryLimit retries ran out.
type ResourceError struct {
	// LimitBytes is the configured budget.
	LimitBytes uint64
	// EstimateBytes is the footprint estimate that tripped the limit.
	EstimateBytes uint64
	// H is the resolution count of the refused build (the smallest H
	// tried when DegradeOnMemoryLimit was set).
	H int
	// Degraded reports whether DegradeOnMemoryLimit retried smaller H
	// values before giving up.
	Degraded bool
}

func (e *ResourceError) Error() string {
	if e.Degraded {
		return fmt.Sprintf("mrcc: counting-tree needs ~%d bytes even at H=%d, over the %d-byte memory limit",
			e.EstimateBytes, e.H, e.LimitBytes)
	}
	return fmt.Sprintf("mrcc: counting-tree at H=%d needs ~%d bytes, over the %d-byte memory limit (set DegradeOnMemoryLimit to retry at smaller H)",
		e.H, e.EstimateBytes, e.LimitBytes)
}

// isAbort classifies an error as an abort (to be wrapped in
// *PipelineError) rather than an organic pipeline failure. Aborts are
// context cancellation/deadline, injected faults, and contained panics.
func isAbort(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var pe *panics.Error
	if errors.As(err, &pe) {
		return true
	}
	var fe *fault.Error
	return errors.As(err, &fe)
}

// aborter is one run's shared abort state. A nil aborter is valid and
// every method is a no-op on it — that is how direct searcher
// construction (the internal tests) runs with zero overhead.
type aborter struct {
	ctx     context.Context
	stopped atomic.Bool
	mu      sync.Mutex
	err     error
}

// newAborter returns an aborter polling ctx; a nil or Background
// context still supports fault injection and panic routing.
func newAborter(ctx context.Context) *aborter {
	return &aborter{ctx: ctx}
}

// fail records the first error, raises the stop flag, and returns the
// recorded (winning) error.
func (a *aborter) fail(err error) error {
	if a == nil {
		return err
	}
	a.mu.Lock()
	if a.err == nil {
		a.err = err
	}
	err = a.err
	a.mu.Unlock()
	a.stopped.Store(true)
	return err
}

// firstErr returns the recorded failure, or nil.
func (a *aborter) firstErr() error {
	if a == nil {
		return nil
	}
	if !a.stopped.Load() {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// stoppedNow reports (with one atomic load) whether some checkpoint
// already failed; hot loops use it to drain quickly.
func (a *aborter) stoppedNow() bool {
	return a != nil && a.stopped.Load()
}

// failWorker routes a contained worker failure into the run's abort
// machinery. Without one (direct searcher construction in the internal
// tests) the error re-panics instead, so it fails the test loudly
// rather than being silently dropped.
func (s *searcher) failWorker(err error) {
	if s.abort != nil {
		s.abort.fail(err)
		return
	}
	panic(panics.New(err))
}

// check is the cooperative checkpoint: it observes, in order, a failure
// already recorded by a peer, the named fault-injection point (a no-op
// unless the binary is built with -tags=fault and the point is armed),
// and context cancellation. Any failure is recorded so every other
// worker drains at its next checkpoint.
func (a *aborter) check(point string) error {
	if a == nil {
		return nil
	}
	if a.stopped.Load() {
		return a.firstErr()
	}
	if err := fault.Inject(point); err != nil {
		return a.fail(err)
	}
	if a.ctx != nil {
		if err := a.ctx.Err(); err != nil {
			return a.fail(err)
		}
	}
	return nil
}
