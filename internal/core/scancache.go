// One-shot convolution cache for the β-search (phase two).
//
// Mask values are pure functions of the immutable Counting-tree: the
// restart loop of Algorithm 2 mutates only the searcher's used flags
// and its β-cluster overlap set, never a cell count. So instead of
// re-convolving every cell of every level on every restart pass (the
// naive scan, a test oracle kept for the equivalence suite and the
// phase-two benchmark), the searcher computes each
// level's values ONCE into a flat slab — trivially deterministic,
// since the values do not depend on evaluation order — and turns every
// densestCell call into an eligibility skip-scan: walk the level's
// entries in the scan's total order (value descending, lexicographic
// path ascending; the level index lists its entries in path order, so
// the tie-break compares entry indexes) and return the first entry
// that is neither used nor β-overlapping. Because that order IS the
// argmax order, the first eligible entry is exactly the cell the naive
// scan would pick, so the serial-equivalence guarantee survives
// unchanged (pinned by internal/core/scan_equiv_test.go).
//
// The search reads only a short prefix of that order (about one entry
// in twenty on the paper's 250k-point dataset), so the order is never
// sorted in full: the entries go into a binary max-heap, heapified in
// O(n), and each is popped only when the scan reaches the end of the
// entries popped so far. The pop sequence is the sorted sequence.
//
// The face values come from the level index: 2d·N(i) minus the entry's
// face sum (ctree.LevelIndex.FaceSum), which the index build adds up
// while it links face neighbors. Building a level's cache therefore
// costs O(n) reads plus the heapify, and restart passes drop from
// O(cells · d) re-convolution to O(skips) eligibility checks. The
// overlap check derives a scanned entry's bounds from its path, as the
// naive scan does, rebuilt into the searcher's one scratch path
// (ctree.LevelIndex.PathInto), so a probe allocates nothing; a used
// entry is skipped before its path is rebuilt.
package core

import (
	"mrcc/internal/conv"
	"mrcc/internal/ctree"
	"mrcc/internal/fault"
)

// levelScan is one level's cached convolution snapshot and its lazily
// ordered entries.
//
// start is the incremental-repair cursor: order[:start] is the prefix
// of entries already observed ineligible. Within one searcher lifetime
// ineligibility is monotone — the restart loop only ever SETS used
// flags (a searcher's start clear) and the β-cluster list is
// append-only, so a cell that overlaps any β-cluster overlaps
// it forever. A retired entry can therefore never become eligible
// again, and each restart pass resumes the skip-scan at start instead
// of re-deriving the whole prefix's eligibility: the per-pass cost is
// O(newly flipped cells), not O(all previously skipped cells).
// The equivalence sweep pins it against a test oracle that re-walks
// the whole order.
type levelScan struct {
	ix    *ctree.LevelIndex
	vals  []int64 // mask value per index entry
	order []int32 // the first entries of the (value desc, path asc) order, popped from heap
	heap  []int32 // the entries not yet in order: a binary heap, first in that order at the root
	start int32   // repair cursor: order[:start] is permanently ineligible
}

// levelScan returns the cached snapshot for level h, building it on
// first use. An aborted build is NOT cached: the slab would be
// incomplete, and a caller that retries after clearing the abort (none
// does today) must get a fresh, complete build.
func (s *searcher) levelScan(h int) (*levelScan, error) {
	if s.scans == nil {
		s.scans = make([]*levelScan, len(s.idx)+1)
	}
	if sc := s.scans[h]; sc != nil {
		return sc, nil
	}
	sc, err := s.buildLevelScan(h)
	if err != nil {
		return nil, err
	}
	s.scans[h] = sc
	return sc, nil
}

// buildLevelScan computes level h's mask values and heapifies its
// entries. The face mask is one serial pass over the level index's face
// sums: O(n) array reads, too little work to pay for a fan-out. The
// full 3^d mask keeps the per-entry walk, in parallel for Workers > 1,
// each worker rebuilding the entries' paths into one scratch path; its
// values are pure integer sums, so any chunking yields the same slab.
//
// Both passes are segmented (scanCheckEvery entries per segment) and
// poll the run's abort checkpoint a few thousand cells apart: a
// cancelled context stops the one-shot cache build, the run's single
// largest scan-side computation, within one segment. Segmenting changes
// nothing about the values, each of which is computed on its own.
func (s *searcher) buildLevelScan(h int) (*levelScan, error) {
	ix := s.idx[h-1]
	n := ix.Len()
	vals := make([]int64, n)
	segmented := func(lo, hi int, fill func(lo, hi int)) error {
		for seg := lo; seg < hi; seg += scanCheckEvery {
			if err := s.abort.Check(fault.ScanChunk); err != nil {
				return err
			}
			fill(seg, min(seg+scanCheckEvery, hi))
		}
		return nil
	}
	var err error
	if s.cfg.fullMask {
		full := func(_, lo, hi int) error {
			path := make(ctree.Path, 0, h)
			return segmented(lo, hi, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					path = ix.PathInto(path, i)
					vals[i] = conv.FullValue(ix, path, i)
				}
			})
		}
		if s.workers > 1 && n >= minParallelCells {
			err = fault.Ranges(s.abort, n, s.workers, full)
		} else {
			err = full(0, 0, n)
		}
	} else {
		twoD := int64(2 * s.d)
		err = segmented(0, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				vals[i] = twoD*int64(ix.N(i)) - ix.FaceSum(i)
			}
		})
	}
	if err != nil {
		return nil, err
	}
	sc := &levelScan{ix: ix, vals: vals, heap: make([]int32, n)}
	for i := range sc.heap {
		sc.heap[i] = int32(i)
	}
	for i := n/2 - 1; i >= 0; i-- {
		sc.siftDown(i)
	}
	s.col.AddValueCacheBuild(int64(n))
	s.col.AddMaskEvals(int64(n))
	return sc, nil
}

// precedes reports whether entry a comes before entry b in the scan
// order: higher value first, and on a tie the lower entry index, which
// is the lexicographically smaller path.
func (sc *levelScan) precedes(a, b int32) bool {
	va, vb := sc.vals[a], sc.vals[b]
	return va > vb || va == vb && a < b
}

// siftDown moves heap[i] down until neither child precedes it.
func (sc *levelScan) siftDown(i int) {
	heap := sc.heap
	x := heap[i]
	for {
		c := 2*i + 1
		if c >= len(heap) {
			break
		}
		if c+1 < len(heap) && sc.precedes(heap[c+1], heap[c]) {
			c++
		}
		if !sc.precedes(heap[c], x) {
			break
		}
		heap[i] = heap[c]
		i = c
	}
	heap[i] = x
}

// pop appends the heap's first entry in scan order to order, reporting
// false when every entry is already there.
func (sc *levelScan) pop() bool {
	last := len(sc.heap) - 1
	if last < 0 {
		return false
	}
	sc.order = append(sc.order, sc.heap[0])
	sc.heap[0] = sc.heap[last]
	sc.heap = sc.heap[:last]
	if last > 0 {
		sc.siftDown(0)
	}
	return true
}

// densestCellCached returns the first eligible entry of level h's scan
// order — by construction the same (cell, value) the naive per-pass
// argmax scan selects — or (nil, -1, 0) when every entry is used or
// β-overlapping. Entries leave the heap only as the walk reaches them.
// The path it returns is the searcher's scratch path, which its next
// probe or β-test overwrites.
//
// The scan resumes at the level's repair cursor and retires every
// ineligible entry it passes (see levelScan): entries whose used flag
// or β-overlap status did not change since the previous pass are never
// re-examined, so the pass costs O(changed) eligibility checks.
func (s *searcher) densestCellCached(h int) (ctree.Path, int, int64) {
	sc, err := s.levelScan(h)
	if err != nil {
		// The run's control already holds the failure (a failed check,
		// or a worker panic the fan-out contained); findBetaClusters
		// picks it up right after this scan returns.
		s.failWorker(err)
		return nil, -1, 0
	}
	used, from := s.usedAt(h), int(sc.start)
	var skips int64
	for pos := from; pos < len(sc.order) || sc.pop(); pos++ {
		idx := int(sc.order[pos])
		if used[idx] {
			skips++
			continue
		}
		p := sc.ix.PathInto(s.path, idx)
		s.path = p
		if s.sharesSpaceWithBeta(p) {
			skips++
			continue
		}
		if pos > from {
			s.col.AddCacheRepair(int64(pos - from))
			sc.start = int32(pos)
		}
		s.col.AddScanProbe(skips, int64(pos-from+1))
		return p, idx, sc.vals[idx]
	}
	if len(sc.order) > from {
		s.col.AddCacheRepair(int64(len(sc.order) - from))
		sc.start = int32(len(sc.order))
	}
	s.col.AddScanProbe(skips, int64(len(sc.order)-from))
	return nil, -1, 0
}
