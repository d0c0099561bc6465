// Parallel execution of the pipeline's hot phases. The design goal is
// determinism: every code path here must produce bit-identical results
// to the serial one in core.go for any worker count.
//
// The convolution scan achieves that by reducing with a total order —
// (value descending, lexicographic cell path ascending) — that does not
// depend on visit order: each worker computes the argmax of a
// contiguous chunk of the level's cell slice under that order, and the
// chunk winners reduce under the same order. Point labeling is
// trivially order-free: each point's label is a pure function of the
// point and the (already fixed) β-cluster list.
package core

import (
	"math"
	"sync"

	"mrcc/internal/ctree"
	"mrcc/internal/fault"
	"mrcc/internal/panics"
)

// minParallelCells is the level size below which spawning scan workers
// costs more than the scan; under it the chunked scan degrades to one
// chunk. Determinism does not depend on this value.
const minParallelCells = 256

// minParallelPoints is the dataset size below which point labeling
// stays serial.
const minParallelPoints = 4096

// scanCheckEvery is the number of cells (or points) a hot loop
// processes between abort checkpoints. It bounds cancellation latency
// to a few thousand units of work while keeping the per-iteration cost
// of the robustness layer at one predictable branch.
const scanCheckEvery = 4096

// chunkBest is one worker's scan result: the maximal mask value in its
// chunk and, among the maximal cells, the lexicographically smallest
// path. ref == ctree.NilRef means the chunk had no eligible cell —
// every construction site must set it explicitly, because the Ref
// zero value (0) is the arena's root sentinel, not "absent".
type chunkBest struct {
	val  int64
	path ctree.Path
	ref  ctree.Ref
}

// better reports whether b should replace cur in the reduction. The
// order is total over eligible cells (paths are unique), so the global
// winner is independent of chunking and reduction order — and equal to
// what the serial scan in core.go picks.
func (b *chunkBest) better(cur *chunkBest) bool {
	if b.ref == ctree.NilRef {
		return false
	}
	if cur.ref == ctree.NilRef {
		return true
	}
	if b.val != cur.val {
		return b.val > cur.val
	}
	return b.path.Compare(cur.path) < 0
}

// densestCellNaiveParallel is the naive (per-pass re-convolving)
// densestCell fanned out over s.workers chunks of the level's flat
// index. It survives only behind the naiveScan test hook (the cached
// scan in scancache.go replaced it as the default); the equivalence
// suite still exercises it at every worker count.
func (s *searcher) densestCellNaiveParallel(h int) (ctree.Path, ctree.Ref, int64) {
	ix := s.tree.LevelIndex(h)
	n := ix.Len()
	workers := s.workers
	if n < minParallelCells {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		best := s.scanChunk(ix, 0, n)
		return best.path, best.ref, best.val
	}
	bests := make([]chunkBest, workers)
	for i := range bests {
		bests[i].ref = ctree.NilRef
	}
	err := parallelRangesIndexedErr(n, workers, func(w, lo, hi int) error {
		bests[w] = s.scanChunk(ix, lo, hi)
		return nil
	})
	if err != nil {
		// A contained worker panic; route it through the shared aborter
		// so findBetaClusters reports it after the fan-out drained.
		s.failWorker(err)
		return nil, ctree.NilRef, 0
	}
	if s.abort.stoppedNow() {
		// A checkpoint failed mid-scan; the partial argmax is
		// meaningless, so report exhaustion and let the caller pick up
		// the recorded error.
		return nil, ctree.NilRef, 0
	}
	best := chunkBest{ref: ctree.NilRef}
	for i := range bests {
		if bests[i].better(&best) {
			best = bests[i]
		}
	}
	if best.ref == ctree.NilRef {
		return nil, ctree.NilRef, 0
	}
	return best.path, best.ref, best.val
}

// scanChunk computes the [lo, hi) chunk's argmax under the (value,
// path) order. It only reads shared state — the tree, the level index,
// the β-cluster list, and the Used flags (mutated strictly between
// scans) — and owns its bounds and neighbor-path scratch, so
// concurrent calls on disjoint chunks are race-free. Instrumentation
// stays out of the loop: mask applications are counted in a local and
// merged with one atomic add per chunk.
func (s *searcher) scanChunk(ix *ctree.LevelIndex, lo, hi int) chunkBest {
	best := chunkBest{val: math.MinInt64, ref: ctree.NilRef}
	d := s.tree.D
	lBuf := make([]float64, d)
	uBuf := make([]float64, d)
	pathBuf := make(ctree.Path, 0, s.tree.H)
	var maskEvals int64
	polled := 0
	for i := lo; i < hi; i++ {
		// Cooperative abort: drain the chunk as soon as any checkpoint
		// failed (one atomic load), and poll ctx/fault points every few
		// thousand cells. Errors are recorded in the shared aborter and
		// reported by findBetaClusters after the fan-out drains, so the
		// chunkBest signature stays untouched.
		if s.abort.stoppedNow() {
			break
		}
		if polled++; polled >= scanCheckEvery {
			polled = 0
			if s.abort.check(fault.ScanChunk) != nil {
				break
			}
		}
		p := ix.PathOf(i)
		if ix.Used(i) || s.sharesSpaceWithBetaInto(p, lBuf, uBuf) {
			continue
		}
		v := s.maskValue(p, ix.Ref(i), pathBuf)
		maskEvals++
		cand := chunkBest{val: v, path: p, ref: ix.Ref(i)}
		if cand.better(&best) {
			best = cand
		}
	}
	s.col.AddMaskEvals(maskEvals)
	return best
}

// parallelRangesErr splits [0, n) into `workers` contiguous ranges and
// runs fn on each concurrently; fn must be safe on disjoint ranges. The
// first error (in worker order) wins, the rest drain, and a panicking
// worker yields a *panics.Error instead of crashing the process.
func parallelRangesErr(n, workers int, fn func(lo, hi int) error) error {
	return parallelRangesIndexedErr(n, workers, func(_, lo, hi int) error { return fn(lo, hi) })
}

// parallelRangesIndexedErr is parallelRangesErr additionally passing
// each worker's ordinal, for callers that keep per-worker state (the
// naive scan's per-chunk winners). Panics inside fn
// are recovered in the worker goroutine itself, so the WaitGroup
// always drains — no abandoned peers, no leaked goroutines — and the
// panic value (with its stack) is reported as a *panics.Error.
func parallelRangesIndexedErr(n, workers int, fn func(w, lo, hi int) error) error {
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
			errs[w] = fn(w, lo, hi)
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
