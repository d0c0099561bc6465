// The β-search's scan oracles, which the equivalence suites pin the
// cached scan (scancache.go) against through export_test.go: the naive
// scan re-convolves every eligible cell per pass, and the re-walk reads
// the cached order without the repair cursor.
//
// The naive scan stays deterministic across workers by reducing with a
// total order — (value descending, lexicographic cell path ascending) —
// that does not depend on visit order: each worker computes the argmax
// of a contiguous chunk of the level's cell slice under that order, and
// the chunk winners reduce under the same order.
package core

import (
	"math"

	"mrcc/internal/conv"
	"mrcc/internal/ctree"
	"mrcc/internal/fault"
)

// chunkBest is one worker's scan result: the maximal mask value in its
// chunk and, among the maximal cells, the lexicographically smallest
// path. entry < 0 means the chunk had no eligible cell — every
// construction site must set it explicitly, because entry 0 is the
// level's first cell, not "absent".
type chunkBest struct {
	val   int64
	path  ctree.Path
	entry int
}

// better reports whether b should replace cur in the reduction. The
// order is total over eligible cells (paths are unique), so the global
// winner is independent of chunking and reduction order.
func (b *chunkBest) better(cur *chunkBest) bool {
	if b.entry < 0 {
		return false
	}
	if cur.entry < 0 {
		return true
	}
	if b.val != cur.val {
		return b.val > cur.val
	}
	return b.path.Compare(cur.path) < 0
}

// densestCellNaive is the naive (per-pass re-convolving) densestCell,
// the oracle WithNaiveScan installs: each eligible entry of the level
// index is convolved afresh by 2d neighbor lookups (the full mask's
// 3^d−1), serially or fanned out over s.workers chunks of the level.
// The equivalence suite exercises it at every worker count.
func (s *searcher) densestCellNaive(h int) (ctree.Path, int, int64) {
	ix := s.idx[h-1]
	n := ix.Len()
	workers := s.workers
	if n < minParallelCells {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	used := s.usedAt(h)
	if workers <= 1 {
		best := s.scanChunk(ix, used, 0, n)
		return best.path, best.entry, best.val
	}
	bests := make([]chunkBest, workers)
	for i := range bests {
		bests[i].entry = -1
	}
	err := fault.Ranges(s.abort, n, workers, func(w, lo, hi int) error {
		bests[w] = s.scanChunk(ix, used, lo, hi)
		return nil
	})
	if err != nil {
		// A contained worker panic, already in the run's control;
		// findBetaClusters reports it after the fan-out drained.
		s.failWorker(err)
		return nil, -1, 0
	}
	if s.abort.FirstErr() != nil {
		// A checkpoint failed mid-scan; the partial argmax is
		// meaningless, so report exhaustion and let the caller pick up
		// the recorded error.
		return nil, -1, 0
	}
	best := chunkBest{entry: -1}
	for i := range bests {
		if bests[i].better(&best) {
			best = bests[i]
		}
	}
	return best.path, best.entry, best.val
}

// scanChunk computes the [lo, hi) chunk's argmax under the (value,
// path) order. It only reads shared state — the level index, the
// level's used flags (set strictly between scans) and the β-cluster
// list — and owns
// its bounds and neighbor-path scratch, so concurrent calls on disjoint
// chunks are race-free. Instrumentation stays out of the loop: mask
// applications are counted in a local and merged with one atomic add
// per chunk.
func (s *searcher) scanChunk(ix *ctree.LevelIndex, used []bool, lo, hi int) chunkBest {
	best := chunkBest{val: math.MinInt64, entry: -1}
	lBuf := make([]float64, s.d)
	uBuf := make([]float64, s.d)
	pathBuf := make(ctree.Path, 0, ix.Level)
	var maskEvals int64
	polled := 0
	for i := lo; i < hi; i++ {
		// Cooperative abort: drain the chunk as soon as any checkpoint
		// failed (one atomic load), and poll ctx/fault points every few
		// thousand cells. Errors are recorded in the run's control and
		// reported by findBetaClusters after the fan-out drains, so the
		// chunkBest signature stays untouched.
		if s.abort.FirstErr() != nil {
			break
		}
		if polled++; polled >= scanCheckEvery {
			polled = 0
			if s.abort.Check(fault.ScanChunk) != nil {
				break
			}
		}
		p := ix.PathInto(nil, i)
		if used[i] || s.sharesSpaceWithBetaInto(p, lBuf, uBuf) {
			continue
		}
		v := s.maskValue(ix, p, i, pathBuf)
		maskEvals++
		cand := chunkBest{val: v, path: p, entry: i}
		if cand.better(&best) {
			best = cand
		}
	}
	s.col.AddMaskEvals(maskEvals)
	return best
}

// maskValue applies the configured convolution mask to entry i of ix,
// whose path is p, using buf as neighbor-path scratch so the face mask
// allocates nothing. It only reads the index, so concurrent calls with
// distinct scratch are safe.
func (s *searcher) maskValue(ix *ctree.LevelIndex, p ctree.Path, i int, buf ctree.Path) int64 {
	if s.cfg.fullMask {
		return conv.FullValue(ix, p, i)
	}
	return conv.FaceValueScratch(ix, p, i, buf)
}

// densestCellRewalk is densestCellCached without the repair cursor, the
// oracle WithoutCacheRepair installs: every pass re-walks level h's
// scan order from the top, and the cursor is neither read nor advanced.
func (s *searcher) densestCellRewalk(h int) (ctree.Path, int, int64) {
	sc, err := s.levelScan(h)
	if err != nil {
		s.failWorker(err)
		return nil, -1, 0
	}
	used := s.usedAt(h)
	var skips int64
	for pos := 0; pos < len(sc.order) || sc.pop(); pos++ {
		idx := int(sc.order[pos])
		p := sc.ix.PathInto(nil, idx)
		if used[idx] || s.sharesSpaceWithBeta(p) {
			skips++
			continue
		}
		s.col.AddScanProbe(skips, int64(pos+1))
		return p, idx, sc.vals[idx]
	}
	s.col.AddScanProbe(skips, int64(len(sc.order)))
	return nil, -1, 0
}
