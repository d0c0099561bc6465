// One-shot convolution cache for the β-search (phase two).
//
// Mask values are pure functions of the immutable Counting-tree: the
// restart loop of Algorithm 2 mutates only the Used flags and the
// β-cluster overlap set, never a cell count. So instead of
// re-convolving every cell of every level on every restart pass (the
// naive scan, kept behind the naiveScan test hook for the equivalence
// suite and the phase-two benchmark), the searcher computes each
// level's values ONCE into a flat slab — trivially deterministic,
// since the values do not depend on evaluation order — sorts the
// entries once under the scan's existing total order (value descending,
// lexicographic path ascending; the level index lists its entries in
// path order, so the tie-break compares entry indexes), and turns
// every subsequent densestCell call into an eligibility skip-scan:
// walk the cached order and return the first entry that is neither
// Used nor β-overlapping. Because the cached order IS the argmax
// order, the first eligible entry is exactly the cell the naive scan
// would pick, so the serial-equivalence guarantee survives unchanged
// (pinned by internal/core/scan_equiv_test.go).
//
// The values themselves come from one array pass over the level
// index's upper-neighbor links (ctree.LevelIndex.Upper), so building
// the cache costs O(cells · d) reads and no neighbor lookups, plus one
// sort of the level's int32 entry order. Restart passes drop from
// O(cells · d) re-convolution to O(skips) eligibility checks, and the
// overlap check reads the level index's O(1) bounds instead of
// re-deriving Path.Bounds (O(d·h)) per cell per pass.
package core

import (
	"cmp"
	"slices"

	"mrcc/internal/conv"
	"mrcc/internal/ctree"
	"mrcc/internal/fault"
)

// levelScan is one level's cached, ordered convolution snapshot.
//
// start is the incremental-repair cursor: order[:start] is the prefix
// of entries already observed ineligible. Within one searcher lifetime
// ineligibility is monotone — the restart loop only ever SETS Used
// flags (ResetUsed runs before the searcher exists) and the β-cluster
// list is append-only, so a cell that overlaps any β-cluster overlaps
// it forever. A retired entry can therefore never become eligible
// again, and each restart pass resumes the skip-scan at start instead
// of re-deriving the whole prefix's eligibility: the per-pass cost is
// O(newly flipped cells), not O(all previously skipped cells).
// The noCacheRepair test hook restores the full re-walk for the
// equivalence sweep.
type levelScan struct {
	ix    *ctree.LevelIndex
	vals  []int64 // mask value per index entry
	order []int32 // entry indices, (value desc, path asc) order
	start int32   // repair cursor: order[:start] is permanently ineligible
}

// levelScan returns the cached snapshot for level h, building it on
// first use. An aborted build is NOT cached: the slab would be
// incomplete, and a caller that retries after clearing the abort (none
// does today) must get a fresh, complete build.
func (s *searcher) levelScan(h int) (*levelScan, error) {
	if s.scans == nil {
		s.scans = make([]*levelScan, s.tree.H)
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

// buildLevelScan computes level h's mask values and the total-order
// permutation over them. The face mask is one serial pass over the
// level index's upper-neighbor links (conv.FaceValuesChunk): O(n·d)
// array reads, too little work to pay for a fan-out. The full 3^d mask
// keeps the per-entry walk, in parallel for Workers > 1; its values are
// pure integer sums, so any chunking yields the same slab.
//
// Both passes are segmented (scanCheckEvery entries per segment) and
// poll the run's abort checkpoint a few thousand cells apart: a
// cancelled context stops the one-shot cache build, the run's single
// largest scan-side computation, within one segment. Segmenting changes
// nothing about the values: each FaceValuesChunk call scatters a
// disjoint entry range's contributions and integer addition commutes
// exactly.
func (s *searcher) buildLevelScan(h int) (*levelScan, error) {
	ix := s.tree.LevelIndex(h)
	n := ix.Len()
	vals := make([]int64, n)
	segmented := func(lo, hi int, fill func(lo, hi int)) error {
		for seg := lo; seg < hi; seg += scanCheckEvery {
			if err := s.abort.check(fault.ScanChunk); err != nil {
				return err
			}
			fill(seg, min(seg+scanCheckEvery, hi))
		}
		return nil
	}
	var err error
	if s.cfg.FullMask {
		full := func(lo, hi int) error {
			return segmented(lo, hi, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					vals[i] = conv.FullValue(s.tree, ix.PathOf(i), ix.Ref(i))
				}
			})
		}
		if s.workers > 1 && n >= minParallelCells {
			err = parallelRangesErr(n, s.workers, full)
		} else {
			err = full(0, n)
		}
	} else {
		err = segmented(0, n, func(lo, hi int) { conv.FaceValuesChunk(ix, lo, hi, vals) })
	}
	if err != nil {
		return nil, err
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	// Entries are in path order (ctree.LevelIndex), so the path
	// tie-break is an entry-index compare.
	slices.SortFunc(order, func(a, b int32) int {
		if vals[a] != vals[b] {
			return cmp.Compare(vals[b], vals[a])
		}
		return cmp.Compare(a, b)
	})
	s.col.AddValueCacheBuild(int64(n))
	s.col.AddMaskEvals(int64(n))
	return &levelScan{ix: ix, vals: vals, order: order}, nil
}

// densestCellCached returns the first eligible entry of level h's
// cached order — by construction the same (cell, value) the naive
// per-pass argmax scan selects — or (nil, NilRef, 0) when every entry
// is Used or β-overlapping.
//
// The default path resumes at the level's repair cursor and retires
// every ineligible entry it passes (see levelScan): entries whose Used
// flag or β-overlap status did not change since the previous pass are
// never re-examined, so the pass costs O(changed) eligibility checks.
// With the noCacheRepair test hook the scan re-walks the order from
// the top — the full-rebuild baseline the equivalence sweep compares
// against — and the cursor is neither read nor advanced.
func (s *searcher) densestCellCached(h int) (ctree.Path, ctree.Ref, int64) {
	sc, err := s.levelScan(h)
	if err != nil {
		// The abort is already recorded in the shared aborter (check
		// failures) or must be routed there (contained panics);
		// findBetaClusters picks it up right after this scan returns.
		s.failWorker(err)
		return nil, ctree.NilRef, 0
	}
	repair := !s.cfg.noCacheRepair
	from := int(sc.start)
	if !repair {
		from = 0
	}
	var skips int64
	for pos := from; pos < len(sc.order); pos++ {
		idx := sc.order[pos]
		if sc.ix.Used(int(idx)) || s.overlapsBetaIndexed(sc.ix, int(idx)) {
			skips++
			continue
		}
		if repair && pos > from {
			s.col.AddCacheRepair(int64(pos - from))
			sc.start = int32(pos)
		}
		s.col.AddScanProbe(skips, int64(pos-from+1))
		return sc.ix.PathOf(int(idx)), sc.ix.Ref(int(idx)), sc.vals[idx]
	}
	if repair && len(sc.order) > from {
		s.col.AddCacheRepair(int64(len(sc.order) - from))
		sc.start = int32(len(sc.order))
	}
	s.col.AddScanProbe(skips, int64(len(sc.order)-from))
	return nil, ctree.NilRef, 0
}

// overlapsBetaIndexed reports whether index entry i overlaps any found
// β-cluster in every axis, reading the entry's bounds from the index's
// coordinate slab (O(1) per axis) instead of re-deriving Path.Bounds
// (O(h)). The float arithmetic is bit-identical to
// BetaCluster.SharesSpace over Path.Bounds: LevelIndex.Bounds computes
// the same float64(coord)·side and (float64(coord)+1)·side products.
func (s *searcher) overlapsBetaIndexed(ix *ctree.LevelIndex, i int) bool {
	d := s.tree.D
	for bi := range s.betas {
		b := &s.betas[bi]
		overlap := true
		for j := 0; j < d; j++ {
			lo, hi := ix.Bounds(i, j)
			if hi < b.L[j] || lo > b.U[j] {
				overlap = false
				break
			}
		}
		if overlap {
			return true
		}
	}
	return false
}
