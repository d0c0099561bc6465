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
	mu    sync.Mutex
	stats Stats

	// Hot counters: merged per worker chunk with one atomic add each.
	maskEvals   atomic.Int64
	labeled     atomic.Int64
	noise       atomic.Int64
	skips       atomic.Int64
	scanDepth   atomic.Int64
	cacheRepair atomic.Int64
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{}
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

// SetTreeBytes records the Counting-tree footprint: tree is the arenas
// and the level indexes together (Stats.TreeBytes), arena the arenas
// alone (Stats.ArenaBytes).
func (c *Collector) SetTreeBytes(tree, arena uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.TreeBytes, c.stats.ArenaBytes = tree, arena
	c.mu.Unlock()
}

// SetBuildCounters records the counters of the run's tree build. A run
// that degrades to a smaller H builds again, and the last build, whose
// tree the run clusters, is the one recorded.
func (c *Collector) SetBuildCounters(b BuildCounters) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stats.Counters.BuildCounters = b
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

// AddLabeled merges one labeling chunk's (labeled, noise) counts.
func (c *Collector) AddLabeled(labeled, noise int64) {
	if c == nil {
		return
	}
	c.noise.Add(noise)
	c.labeled.Add(labeled + noise)
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
