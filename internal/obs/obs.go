// Package obs is the observability layer of the MrCC pipeline. It
// collects, per run, the quantities the paper's complexity claims are
// stated in — per-phase wall times (the single-scan O(η·H·d) tree
// build, the level-index build, the O(d)-per-cell convolution scan,
// the β-tests, the cluster merge and the point labeling), pipeline
// counters (cells per level, mask evaluations, β-tests
// attempted/accepted/rejected, critical-value cache hits/misses, merged
// β-clusters, noise points) and runtime.MemStats deltas per contiguous
// phase. Stats is the one record a run writes and core's
// Config.CollectStats its one switch: a run hands the record back in
// its Result when it ends, and nothing reports while it runs.
//
// The layer is built so it can stay on in production:
//
//   - A nil *Collector is valid and turns every call into a cheap no-op,
//     so the pipeline carries exactly one pointer of overhead when stats
//     are disabled.
//   - Hot loops (the convolution scan, point labeling) never touch the
//     collector per element: workers accumulate plain integers locally
//     and merge them once per chunk via atomic adds, so instrumentation
//     allocates nothing and adds no per-cell synchronization.
//
// Nothing here influences the clustering itself: the deterministic
// serial-equivalence guarantee of DESIGN.md §5 holds with stats on.
package obs

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// Phase identifies one stage of the MrCC pipeline.
type Phase uint8

const (
	// PhaseNormalize is the min–max rescaling into [0,1)^d (only runs
	// when the caller hands the facade raw data).
	PhaseNormalize Phase = iota
	// PhaseTreeBuild is the Counting-tree construction (Algorithm 1),
	// the paper's single scan over the data.
	PhaseTreeBuild
	// PhaseLevelIndex is the build of the flat level indexes the
	// β-search reads: the run's one ctree.UnionLevelIndexes call over
	// its trees, one or several, which every run makes (nothing caches
	// an index), a run under a memory limit included.
	PhaseLevelIndex
	// PhaseBetaSearch is the whole β-cluster search (Algorithm 2): the
	// outer restart loop around the convolution scans and β-tests. Its
	// memory delta covers the two interleaved sub-phases below.
	PhaseBetaSearch
	// PhaseConvScan is the per-level convolution scan inside the
	// β-search (wall time only; it interleaves with PhaseBetaTest, so
	// allocation is attributed to PhaseBetaSearch).
	PhaseConvScan
	// PhaseBetaTest is the null-hypothesis testing plus β-cluster
	// description inside the β-search (wall time only, as above).
	PhaseBetaTest
	// PhaseClusterMerge assembles correlation clusters from β-clusters
	// (Algorithm 3, union–find).
	PhaseClusterMerge
	// PhaseLabeling assigns every point its cluster or noise.
	PhaseLabeling

	// NumPhases is the number of phases.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"normalize", "treeBuild", "levelIndex", "betaSearch", "convScan",
	"betaTest", "clusterMerge", "labeling",
}

// String returns the phase's stable, JSON-friendly name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// phaseTracksMem reports whether the phase runs as one contiguous
// interval, which is when a runtime.MemStats delta is meaningful.
// PhaseConvScan and PhaseBetaTest interleave inside PhaseBetaSearch, so
// their spans skip the (stop-the-world) MemStats reads and their
// allocation shows up in the enclosing PhaseBetaSearch row.
func phaseTracksMem(p Phase) bool {
	return p != PhaseConvScan && p != PhaseBetaTest
}

// PhaseStat aggregates the wall time and memory movement of one phase.
type PhaseStat struct {
	// WallNS is the accumulated wall time in nanoseconds.
	WallNS int64 `json:"wallNs"`
	// Spans is how many intervals were accumulated (1 for contiguous
	// phases, but a run that degrades under a memory limit records a
	// tree build for each H it tries and a level index for each tree it
	// indexes; one per level pass for the scan; one per tested cell for
	// the β-tests).
	Spans int64 `json:"spans,omitempty"`
	// HeapDeltaBytes is the change of runtime.MemStats.HeapAlloc across
	// the phase (negative when a GC ran mid-phase).
	HeapDeltaBytes int64 `json:"heapDeltaBytes,omitempty"`
	// AllocBytes is the TotalAlloc delta: bytes allocated during the
	// phase regardless of collection.
	AllocBytes uint64 `json:"allocBytes,omitempty"`
	// GCCycles is the NumGC delta across the phase.
	GCCycles uint32 `json:"gcCycles,omitempty"`
}

// Wall returns the accumulated wall time.
func (p PhaseStat) Wall() time.Duration { return time.Duration(p.WallNS) }

// Counters are the pipeline's event counts. All counts are exact, not
// sampled, and identical for every worker count but RadixSortChunks,
// which counts one record stream per sort worker.
type Counters struct {
	// CellsPerLevel[h] is the number of stored Counting-tree cells at
	// level h (index 0 is unused; levels run 1..H-1).
	CellsPerLevel []int64 `json:"cellsPerLevel,omitempty"`
	// MaskEvals counts convolution-mask applications — the unit of the
	// paper's O(d)-per-cell claim. With the one-shot value cache this is
	// one per stored cell per level touched by the search (the cache
	// build); the naive per-pass scan pays one per eligible cell per
	// pass instead.
	MaskEvals int64 `json:"maskEvals"`
	// ScanPasses counts iterations of Algorithm 2's outer restart loop.
	ScanPasses int64 `json:"scanPasses"`
	// ValueCacheBuilds counts per-level one-shot convolution-value cache
	// builds; ValueCacheEntries is the total number of cached values
	// (== MaskEvals in cached mode).
	ValueCacheBuilds  int64 `json:"valueCacheBuilds"`
	ValueCacheEntries int64 `json:"valueCacheEntries"`
	// EligibilitySkips counts cached-order entries skipped because they
	// were Used or β-overlapping; ScanDepth is the cumulative number of
	// entries examined before each scan's early exit (skips + winner),
	// so ScanDepth/ (scan invocations) is the mean early-exit depth.
	EligibilitySkips int64 `json:"eligibilitySkips"`
	ScanDepth        int64 `json:"scanDepth"`
	// CacheRepairCells counts scan-cache entries permanently retired by
	// the incremental eligibility repair (the cursor advances of
	// scancache.go); each retired cell is re-examined on no later pass.
	CacheRepairCells int64 `json:"cacheRepairCells,omitempty"`
	// BuildCounters describe the run's own tree build; a run over trees
	// it was given built none and reports them all zero.
	BuildCounters
	// SnapshotSaveBytes / SnapshotLoadBytes count tree snapshot IO
	// (treeio) performed around the run by the CLI's -save-tree and
	// -load-tree modes.
	SnapshotSaveBytes int64 `json:"snapshotSaveBytes,omitempty"`
	SnapshotLoadBytes int64 `json:"snapshotLoadBytes,omitempty"`
	// BetaTests / BetaAccepted / BetaRejected count the statistical
	// tests attempted and their outcomes.
	BetaTests    int64 `json:"betaTests"`
	BetaAccepted int64 `json:"betaAccepted"`
	BetaRejected int64 `json:"betaRejected"`
	// CritCacheHits / CritCacheMisses count lookups of the memoized
	// Binomial critical values.
	CritCacheHits   int64 `json:"critCacheHits"`
	CritCacheMisses int64 `json:"critCacheMisses"`
	// BetaClusters and Clusters are the final β-cluster and correlation
	// cluster counts; MergedBetas counts the union–find merges that
	// joined two previously separate groups (so BetaClusters -
	// MergedBetas == Clusters).
	BetaClusters int64 `json:"betaClusters"`
	Clusters     int64 `json:"clusters"`
	MergedBetas  int64 `json:"mergedBetas"`
	// LabeledPoints and NoisePoints partition the dataset.
	LabeledPoints int64 `json:"labeledPoints"`
	NoisePoints   int64 `json:"noisePoints"`
}

// BuildCounters are the counters one tree build (ctree.Build) reports
// to its collector when it succeeds. They describe that build alone: a
// tree a run was given (a snapshot load, a union, a streamed run list)
// carries none, whatever builds made it.
type BuildCounters struct {
	// ArenaGrows counts arena slab reallocations (capacity doublings)
	// across the tree build. An in-memory build counts its cells first
	// and allocates its arena once, so it reports 0; a spilled build
	// doubles from 64 rows, about log2(cells/64) times.
	ArenaGrows int64 `json:"arenaGrows,omitempty"`
	// BatchRuns / BatchRunPoints describe the sorted batch insertion:
	// BatchRuns is how many leaf-path runs the Morton-sorted record
	// streams collapsed to, BatchRunPoints how many points those runs
	// carried, which is every point of the build.
	// BatchRunPoints/BatchRuns is the mean run length — the batching
	// win over per-point descents.
	BatchRuns      int64 `json:"batchRuns,omitempty"`
	BatchRunPoints int64 `json:"batchRunPoints,omitempty"`
	// RadixSortChunks counts the record streams the build ordered with
	// the LSD radix kernel (ctree/radix.go) — one per sort worker or
	// spilled run. Zero when every stream took the multi-word
	// comparison-sort fallback (d·(H-1) > 64).
	RadixSortChunks int64 `json:"radixSortChunks,omitempty"`
	// SpillRuns / SpillBytes describe an out-of-core tree build
	// (ctree.BuildOptions.SpillDir): sorted runs spilled to disk and
	// the bytes they carried. Zero for in-memory builds.
	SpillRuns  int64 `json:"spillRuns,omitempty"`
	SpillBytes int64 `json:"spillBytes,omitempty"`
}

// Stats is one run's complete observability record. It is plain data:
// marshal it with encoding/json for the BENCH trajectory or render the
// human table with Format.
type Stats struct {
	// Points, Dims, H and Workers echo the run's shape.
	Points  int `json:"points"`
	Dims    int `json:"dims"`
	H       int `json:"h"`
	Workers int `json:"workers"`
	// TreeBytes is the Counting-tree footprint: the arena's exact
	// slab/table accounting (ctree.MemoryBytes) plus the run's flat
	// level index (ctree.LevelIndex.MemoryBytes) — the two are
	// disjoint.
	TreeBytes uint64 `json:"treeBytes"`
	// ArenaBytes is the arena slab footprint alone (the cell columns
	// and the contiguous P slab), i.e. TreeBytes minus the level
	// indexes.
	ArenaBytes uint64 `json:"arenaBytes,omitempty"`

	// Aborted names the phase an interrupted run failed in (cancellation,
	// deadline, injected fault or contained panic); empty for runs that
	// completed. An aborted run's Stats travel inside the returned
	// *PipelineError, so the partial record stays auditable.
	Aborted string `json:"aborted,omitempty"`
	// DegradedH is the reduced resolution count a memory-limited run
	// fell back to under Config.DegradeOnMemoryLimit (0 when the
	// configured H ran). Degraded runs are deterministic: the same
	// dataset, config and limit always land on the same H.
	DegradedH int `json:"degradedH,omitempty"`

	Normalize    PhaseStat `json:"normalize"`
	TreeBuild    PhaseStat `json:"treeBuild"`
	LevelIndex   PhaseStat `json:"levelIndex"`
	BetaSearch   PhaseStat `json:"betaSearch"`
	ConvScan     PhaseStat `json:"convScan"`
	BetaTest     PhaseStat `json:"betaTest"`
	ClusterMerge PhaseStat `json:"clusterMerge"`
	Labeling     PhaseStat `json:"labeling"`

	// ScanWallNSPerLevel[h] is the convolution-scan wall time spent at
	// tree level h (the paper's per-level timing claim; index 0 unused).
	ScanWallNSPerLevel []int64 `json:"scanWallNsPerLevel,omitempty"`

	Counters Counters `json:"counters"`
}

// phase returns the mutable PhaseStat for p.
func (s *Stats) phase(p Phase) *PhaseStat {
	switch p {
	case PhaseNormalize:
		return &s.Normalize
	case PhaseTreeBuild:
		return &s.TreeBuild
	case PhaseLevelIndex:
		return &s.LevelIndex
	case PhaseBetaSearch:
		return &s.BetaSearch
	case PhaseConvScan:
		return &s.ConvScan
	case PhaseBetaTest:
		return &s.BetaTest
	case PhaseClusterMerge:
		return &s.ClusterMerge
	case PhaseLabeling:
		return &s.Labeling
	}
	panic(fmt.Sprintf("obs: unknown phase %d", p))
}

// Phase returns a copy of the PhaseStat for p.
func (s *Stats) Phase(p Phase) PhaseStat { return *s.phase(p) }

// TotalWall sums the wall times of the top-level phases (the scan and
// β-test sub-phases are already inside PhaseBetaSearch).
func (s *Stats) TotalWall() time.Duration {
	return s.Normalize.Wall() + s.TreeBuild.Wall() + s.LevelIndex.Wall() +
		s.BetaSearch.Wall() + s.ClusterMerge.Wall() + s.Labeling.Wall()
}

// Format renders the stats as the human-readable table `mrcc -stats`
// prints: one row per phase, then the counters.
func (s *Stats) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run: %d points x %d axes, H=%d, workers=%d, tree %d KB\n",
		s.Points, s.Dims, s.H, s.Workers, s.TreeBytes/1024)
	if s.Aborted != "" {
		fmt.Fprintf(&b, "ABORTED during %s — partial stats follow\n", s.Aborted)
	}
	if s.DegradedH > 0 {
		fmt.Fprintf(&b, "memory limit: degraded to H=%d\n", s.DegradedH)
	}
	fmt.Fprintf(&b, "%-14s %12s %8s %12s %12s %5s\n",
		"phase", "wall", "spans", "heapΔ(KB)", "alloc(KB)", "gc")
	row := func(name string, p PhaseStat, sub bool) {
		if p.WallNS == 0 && p.Spans == 0 {
			return
		}
		indent := ""
		if sub {
			indent = "  "
		}
		fmt.Fprintf(&b, "%-14s %12v %8d %12d %12d %5d\n",
			indent+name, p.Wall().Round(time.Microsecond), p.Spans,
			p.HeapDeltaBytes/1024, p.AllocBytes/1024, p.GCCycles)
	}
	row(PhaseNormalize.String(), s.Normalize, false)
	row(PhaseTreeBuild.String(), s.TreeBuild, false)
	row(PhaseLevelIndex.String(), s.LevelIndex, false)
	row(PhaseBetaSearch.String(), s.BetaSearch, false)
	row(PhaseConvScan.String(), s.ConvScan, true)
	row(PhaseBetaTest.String(), s.BetaTest, true)
	row(PhaseClusterMerge.String(), s.ClusterMerge, false)
	row(PhaseLabeling.String(), s.Labeling, false)
	fmt.Fprintf(&b, "%-14s %12v\n", "total", s.TotalWall().Round(time.Microsecond))
	c := &s.Counters
	if len(c.CellsPerLevel) > 0 {
		fmt.Fprintf(&b, "cells/level: %v", c.CellsPerLevel[1:])
		if len(s.ScanWallNSPerLevel) > 1 {
			walls := make([]time.Duration, 0, len(s.ScanWallNSPerLevel)-1)
			for _, ns := range s.ScanWallNSPerLevel[1:] {
				walls = append(walls, time.Duration(ns).Round(time.Microsecond))
			}
			fmt.Fprintf(&b, "  scan wall/level: %v", walls)
		}
		b.WriteString("\n")
	}
	if c.BatchRuns > 0 || c.ArenaGrows > 0 || s.ArenaBytes > 0 {
		meanRun := float64(0)
		if c.BatchRuns > 0 {
			meanRun = float64(c.BatchRunPoints) / float64(c.BatchRuns)
		}
		fmt.Fprintf(&b, "arena: %d KB in %d grows; batch insert: %d runs, %d points (mean run %.1f), %d radix chunks\n",
			s.ArenaBytes/1024, c.ArenaGrows, c.BatchRuns, c.BatchRunPoints, meanRun, c.RadixSortChunks)
	}
	if c.SpillRuns > 0 {
		fmt.Fprintf(&b, "external build: %d spill runs, %d KB written\n",
			c.SpillRuns, c.SpillBytes/1024)
	}
	if c.SnapshotSaveBytes > 0 || c.SnapshotLoadBytes > 0 {
		fmt.Fprintf(&b, "snapshot IO: %d KB saved, %d KB loaded\n",
			c.SnapshotSaveBytes/1024, c.SnapshotLoadBytes/1024)
	}
	fmt.Fprintf(&b, "mask evals: %d in %d passes; β-tests: %d (%d accepted, %d rejected)\n",
		c.MaskEvals, c.ScanPasses, c.BetaTests, c.BetaAccepted, c.BetaRejected)
	if c.ValueCacheBuilds > 0 {
		fmt.Fprintf(&b, "scan cache: %d level builds (%d values); %d eligibility skips, scan depth %d\n",
			c.ValueCacheBuilds, c.ValueCacheEntries, c.EligibilitySkips, c.ScanDepth)
		fmt.Fprintf(&b, "scan cache repair: %d cells retired\n", c.CacheRepairCells)
	}
	fmt.Fprintf(&b, "critical-value cache: %d hits, %d misses\n",
		c.CritCacheHits, c.CritCacheMisses)
	fmt.Fprintf(&b, "β-clusters: %d merged into %d clusters (%d merges); labeled %d, noise %d\n",
		c.BetaClusters, c.Clusters, c.MergedBetas, c.LabeledPoints, c.NoisePoints)
	return b.String()
}

// Clone returns a deep copy of the stats (slices included).
func (s *Stats) Clone() *Stats {
	if s == nil {
		return nil
	}
	out := *s
	out.Counters.CellsPerLevel = append([]int64(nil), s.Counters.CellsPerLevel...)
	out.ScanWallNSPerLevel = append([]int64(nil), s.ScanWallNSPerLevel...)
	return &out
}

// Measure runs fn and returns its wall time and memory deltas as a
// single-span PhaseStat. The facade uses it for the normalization phase,
// which happens before the core pipeline (and its collector) exists.
func Measure(fn func()) PhaseStat {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return PhaseStat{
		WallNS:         wall.Nanoseconds(),
		Spans:          1,
		HeapDeltaBytes: int64(after.HeapAlloc) - int64(before.HeapAlloc),
		AllocBytes:     after.TotalAlloc - before.TotalAlloc,
		GCCycles:       after.NumGC - before.NumGC,
	}
}
