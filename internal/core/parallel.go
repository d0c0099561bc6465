// Parallel execution of the pipeline's hot phases. The design goal is
// determinism: every code path here must produce bit-identical results
// to the serial one for any worker count. Both fan-outs are order-free:
// the full mask's value fill (scancache.go) computes each entry on its
// own, and each point's label is a pure function of the point and the
// (already fixed) β-cluster list.
package core

import (
	"sync"

	"mrcc/internal/panics"
)

// minParallelCells is the level size below which spawning workers to
// fill a level's full-mask values costs more than the fill; under it
// the fill stays serial. Determinism does not depend on this value.
const minParallelCells = 256

// minParallelPoints is the dataset size below which point labeling
// stays serial.
const minParallelPoints = 4096

// scanCheckEvery is the number of cells (or points) a hot loop
// processes between abort checkpoints. It bounds cancellation latency
// to a few thousand units of work while keeping the per-iteration cost
// of the robustness layer at one predictable branch.
const scanCheckEvery = 4096

// parallelRangesErr splits [0, n) into `workers` contiguous ranges and
// runs fn on each concurrently; fn must be safe on disjoint ranges. The
// first error (in worker order) wins, the rest drain, and a panicking
// worker yields a *panics.Error instead of crashing the process: panics
// inside fn are recovered in the worker goroutine itself, so the
// WaitGroup always drains — no abandoned peers, no leaked goroutines —
// and the panic value (with its stack) is reported.
func parallelRangesErr(n, workers int, fn func(lo, hi int) error) error {
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = panics.New(r)
				}
			}()
			errs[w] = fn(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
