package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Collector records one run's Stats. A nil collector is valid: every
// method is a no-op on it, which is how the pipeline runs with stats
// disabled. Coordinator-side methods (spans, cold counters) are guarded
// by a mutex; the hot counters workers merge into are atomics, added
// once per chunk, never per cell or per point.
type Collector struct {
	mu       sync.Mutex
	progress ProgressFunc
	stats    Stats

	// Hot counters: merged per worker chunk with one atomic add each.
	maskEvals   atomic.Int64
	labeled     atomic.Int64
	noise       atomic.Int64
	skips       atomic.Int64
	scanDepth   atomic.Int64
	cacheRepair atomic.Int64
}

// New returns a collector with an optional progress callback (nil for
// none).
func New(progress ProgressFunc) *Collector {
	return &Collector{progress: progress}
}

// Span is one timed interval of a phase. The zero Span (from a nil
// collector) ends as a no-op.
type Span struct {
	c      *Collector
	phase  Phase
	start  time.Time
	heap0  uint64
	alloc0 uint64
	gc0    uint32
	mem    bool
}

// Start opens a span for phase p. Contiguous phases also snapshot
// runtime.MemStats; the interleaved scan/β-test phases only read the
// clock (see phaseTracksMem).
func (c *Collector) Start(p Phase) Span {
	if c == nil {
		return Span{}
	}
	sp := Span{c: c, phase: p, start: time.Now()}
	if phaseTracksMem(p) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		sp.heap0, sp.alloc0, sp.gc0, sp.mem = ms.HeapAlloc, ms.TotalAlloc, ms.NumGC, true
	}
	return sp
}

// End closes the span, folding its wall time (and, for contiguous
// phases, memory deltas) into the phase's PhaseStat.
func (sp Span) End() { sp.end(-1) }

// EndAtLevel is End for a convolution-scan span, additionally
// attributing the wall time to the given tree level.
func (sp Span) EndAtLevel(level int) { sp.end(level) }

func (sp Span) end(level int) {
	if sp.c == nil {
		return
	}
	wallNS := time.Since(sp.start).Nanoseconds()
	var ms runtime.MemStats
	if sp.mem {
		runtime.ReadMemStats(&ms)
	}
	c := sp.c
	c.mu.Lock()
	st := c.stats.phase(sp.phase)
	st.WallNS += wallNS
	st.Spans++
	if sp.mem {
		st.HeapDeltaBytes += int64(ms.HeapAlloc) - int64(sp.heap0)
		st.AllocBytes += ms.TotalAlloc - sp.alloc0
		st.GCCycles += ms.NumGC - sp.gc0
	}
	if level >= 0 {
		for len(c.stats.ScanWallNSPerLevel) <= level {
			c.stats.ScanWallNSPerLevel = append(c.stats.ScanWallNSPerLevel, 0)
		}
		c.stats.ScanWallNSPerLevel[level] += wallNS
	}
	c.mu.Unlock()
}

// Progress forwards a progress event to the callback, serialized so the
// callback never observes concurrent calls even when chunk workers
// report. It is a no-op without a callback.
func (c *Collector) Progress(p Phase, done, total int64) {
	if c == nil || c.progress == nil {
		return
	}
	c.mu.Lock()
	c.progress(p, done, total)
	c.mu.Unlock()
}

// WantsProgress reports whether a callback is installed, so callers can
// skip assembling progress arguments entirely.
func (c *Collector) WantsProgress() bool {
	return c != nil && c.progress != nil
}

// SetShape records the run's dimensions.
func (c *Collector) SetShape(points, dims, h, workers int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.Points, c.stats.Dims, c.stats.H, c.stats.Workers = points, dims, h, workers
	c.mu.Unlock()
}

// SetAborted records the phase an interrupted run failed in, so the
// partial Stats carried by the pipeline error are self-describing.
func (c *Collector) SetAborted(phase Phase) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.stats.Aborted == "" {
		c.stats.Aborted = phase.String()
	}
	c.mu.Unlock()
}

// SetDegradedH records the reduced resolution count a memory-limited
// run fell back to under DegradeOnMemoryLimit.
func (c *Collector) SetDegradedH(h int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.DegradedH = h
	c.mu.Unlock()
}

// SetTreeBytes records the Counting-tree footprint estimate.
func (c *Collector) SetTreeBytes(b uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.TreeBytes = b
	c.mu.Unlock()
}

// SetArenaStats records the arena storage footprint and the batch-
// insertion shape of the finished tree build: arenaBytes is the exact
// slab/table footprint, grows the number of slab reallocations,
// runs/runPoints the sorted-batch run count and the points those runs
// carried (see Counters.BatchRuns), and radixChunks the record streams
// ordered by the LSD radix kernel.
func (c *Collector) SetArenaStats(arenaBytes uint64, grows, runs, runPoints, radixChunks int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.ArenaBytes = arenaBytes
	c.stats.Counters.ArenaGrows = grows
	c.stats.Counters.BatchRuns = runs
	c.stats.Counters.BatchRunPoints = runPoints
	c.stats.Counters.RadixSortChunks = radixChunks
	c.mu.Unlock()
}

// SetSpillStats records an out-of-core build's disk traffic: the
// number of sorted runs spilled and the bytes written to the spill
// files (zero for in-memory builds, which never call this).
func (c *Collector) SetSpillStats(runs, bytes int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.Counters.SpillRuns = runs
	c.stats.Counters.SpillBytes = bytes
	c.mu.Unlock()
}

// CountCells records the stored-cell count of one tree level.
func (c *Collector) CountCells(level int, n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	for len(c.stats.Counters.CellsPerLevel) <= level {
		c.stats.Counters.CellsPerLevel = append(c.stats.Counters.CellsPerLevel, 0)
	}
	c.stats.Counters.CellsPerLevel[level] = n
	c.mu.Unlock()
}

// AddScanPass counts one iteration of the β-search's outer restart loop.
func (c *Collector) AddScanPass() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.Counters.ScanPasses++
	c.mu.Unlock()
}

// AddBetaTest counts one null-hypothesis test and its outcome.
func (c *Collector) AddBetaTest(accepted bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.Counters.BetaTests++
	if accepted {
		c.stats.Counters.BetaAccepted++
	} else {
		c.stats.Counters.BetaRejected++
	}
	c.mu.Unlock()
}

// AddCritCache counts one critical-value cache lookup.
func (c *Collector) AddCritCache(hit bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if hit {
		c.stats.Counters.CritCacheHits++
	} else {
		c.stats.Counters.CritCacheMisses++
	}
	c.mu.Unlock()
}

// SetClusterCounts records the final β-cluster/cluster/merge counts.
func (c *Collector) SetClusterCounts(betas, clusters, merged int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.Counters.BetaClusters = betas
	c.stats.Counters.Clusters = clusters
	c.stats.Counters.MergedBetas = merged
	c.mu.Unlock()
}

// AddMaskEvals merges one worker chunk's mask-application count. The
// chunk accumulates a plain local integer; this is its single atomic
// add, keeping the scan loop itself allocation- and contention-free.
func (c *Collector) AddMaskEvals(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.maskEvals.Add(n)
}

// MaskEvals returns the mask applications recorded so far (used for
// scan progress events, whose total is unknown up front).
func (c *Collector) MaskEvals() int64 {
	if c == nil {
		return 0
	}
	return c.maskEvals.Load()
}

// AddValueCacheBuild counts one per-level one-shot convolution-value
// cache build of n entries (cold path: once per level per run).
func (c *Collector) AddValueCacheBuild(entries int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.Counters.ValueCacheBuilds++
	c.stats.Counters.ValueCacheEntries += entries
	c.mu.Unlock()
}

// AddScanProbe merges one cached scan's eligibility outcome: skips
// entries were ineligible (Used or β-overlapping) and depth entries
// were examined before the early exit (or the whole order when no
// eligible cell remained). One call per scan invocation.
func (c *Collector) AddScanProbe(skips, depth int64) {
	if c == nil {
		return
	}
	c.skips.Add(skips)
	c.scanDepth.Add(depth)
}

// AddCacheRepair counts n scan-cache entries permanently retired by
// the incremental eligibility repair cursor (one call per cursor
// advance; see Counters.CacheRepairCells).
func (c *Collector) AddCacheRepair(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.cacheRepair.Add(n)
}

// AddLabeled merges one labeling chunk's (labeled, noise) counts and
// returns the cumulative number of points processed, which doubles as
// the labeling progress numerator.
func (c *Collector) AddLabeled(labeled, noise int64) int64 {
	if c == nil {
		return 0
	}
	c.noise.Add(noise)
	return c.labeled.Add(labeled + noise)
}

// Finish folds the atomic hot counters into the stats and returns a
// deep copy, leaving the collector reusable for inspection.
func (c *Collector) Finish() *Stats {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Counters.MaskEvals = c.maskEvals.Load()
	c.stats.Counters.EligibilitySkips = c.skips.Load()
	c.stats.Counters.ScanDepth = c.scanDepth.Load()
	c.stats.Counters.CacheRepairCells = c.cacheRepair.Load()
	total := c.labeled.Load()
	noise := c.noise.Load()
	c.stats.Counters.NoisePoints = noise
	c.stats.Counters.LabeledPoints = total - noise
	return c.stats.Clone()
}
