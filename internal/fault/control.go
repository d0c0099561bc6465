package fault

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Control is one run's stop state, shared by every phase and every
// worker goroutine of a tree build or a clustering run: the first
// failure wins, later checkpoints observe it through one atomic load,
// and the coordinator reports it after every goroutine drained. A nil
// *Control is valid and every method is a no-op on it, so code driven
// without one (a searcher the internal tests build directly) pays
// nothing.
type Control struct {
	ctx     context.Context
	stopped atomic.Bool
	mu      sync.Mutex
	err     error
}

// NewControl returns a Control polling ctx; a nil ctx still routes
// injected faults and contained panics.
func NewControl(ctx context.Context) *Control {
	return &Control{ctx: ctx}
}

// Fail records err unless a failure is already recorded, raises the
// stop flag and returns the recorded (winning) failure.
func (c *Control) Fail(err error) error {
	if c == nil {
		return err
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	err = c.err
	c.mu.Unlock()
	c.stopped.Store(true)
	return err
}

// FirstErr returns the recorded failure, or nil; while none is
// recorded it costs one atomic load.
func (c *Control) FirstErr() error {
	if c == nil || !c.stopped.Load() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Check is the one checkpoint. It observes, in order, a failure a peer
// already recorded, the named injection point (a no-op unless the
// binary is built with the fault tag and the point is armed) and the
// context. A new failure is recorded, so every peer stops at its next
// checkpoint.
func (c *Control) Check(point string) error {
	if c == nil {
		return nil
	}
	if c.stopped.Load() {
		return c.FirstErr()
	}
	if err := Inject(point); err != nil {
		return c.Fail(err)
	}
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			return c.Fail(err)
		}
	}
	return nil
}

// Ranges splits [0, n) into contiguous parts of ⌈n/workers⌉ indexes,
// the last one shorter — so at most min(workers, n) parts — and runs
// fn(part, lo, hi) on each, part numbering them from 0 in index order.
// Each part runs on a goroutine of its own, unless there is only one,
// which runs on the calling goroutine. Ranges returns once every part
// returned.
//
// A panic inside fn is recovered where it happens, so the fan-out
// always drains, and recorded in c as a *PanicError, so the peers stop
// at their next checkpoint. Ranges returns c's first failure, or
// failing that the lowest part's own error: a part's error that c did
// not record (a point that fails validation) is reported as a serial
// pass over [0, n) would report it.
func Ranges(c *Control, n, workers int, fn func(part, lo, hi int) error) error {
	workers = max(1, min(workers, n))
	size := (n + workers - 1) / workers
	var fan fanOut
	for part, lo := 0, 0; lo < n; part, lo = part+1, lo+size {
		if size == n {
			fan.keep(part, runPart(c, fn, part, lo, n))
			break
		}
		fan.wg.Add(1)
		go func() {
			defer fan.wg.Done()
			fan.keep(part, runPart(c, fn, part, lo, min(lo+size, n)))
		}()
	}
	fan.wg.Wait()
	if err := c.FirstErr(); err != nil {
		return err
	}
	return fan.err
}

// fanOut is what the parts of one Ranges call share: the wait group of
// their goroutines, and the lowest part whose fn returned an error,
// with that error.
type fanOut struct {
	wg   sync.WaitGroup
	mu   sync.Mutex
	part int
	err  error
}

// keep records part's error when it is the lowest part's so far.
func (f *fanOut) keep(part int, err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil || part < f.part {
		f.part, f.err = part, err
	}
	f.mu.Unlock()
}

// runPart runs fn on one part of a Ranges fan-out, recovering a panic
// into a *PanicError that it records in c.
func runPart(c *Control, fn func(part, lo, hi int) error, part, lo, hi int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = c.Fail(NewPanicError(r))
		}
	}()
	return fn(part, lo, hi)
}

// PanicError is a recovered panic: the value passed to panic() and the
// stack of the goroutine that panicked, captured at recovery time.
type PanicError struct {
	// Value is the value the code panicked with.
	Value any
	// Stack is the panicking goroutine's stack (debug.Stack output).
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("internal panic: %v", e.Value)
}

// Unwrap exposes an error-typed panic value to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// NewPanicError captures the current stack around a recover() result.
// Call it directly inside the deferred function so the stack still
// shows the panic site. If v is already a *PanicError (a worker's
// recovered panic re-panicked at a coordinator), it is returned
// unchanged so the original stack survives.
func NewPanicError(v any) *PanicError {
	if e, ok := v.(*PanicError); ok {
		return e
	}
	return &PanicError{Value: v, Stack: debug.Stack()}
}
