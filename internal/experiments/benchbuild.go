package experiments

// Bench-build emission (ISSUE 5): a machine-readable record of phase
// one — the Counting-tree build — isolating the arena-backed storage
// and sorted batch insertion. One row per worker count over the bench
// dataset (15-dim, 10-cluster, 15% noise, seed 314, 100k points at
// scale 1, the same generator BenchmarkTreeBuild uses). Each row
// reports wall time, throughput, the heap-allocation count of one
// build (runtime Mallocs delta), and the arena/batch counters
// (footprint, slab grows, run statistics). CI runs this at a small
// scale as a smoke test and uploads results/bench_build.json as an
// artifact; EXPERIMENTS.md records the full-scale series next to the
// pre-arena baseline.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/synthetic"
)

// BenchBuildRecord is one (workers) row of a bench-build run.
type BenchBuildRecord struct {
	Timestamp string  `json:"timestamp"`
	Dataset   string  `json:"dataset"`
	Scale     float64 `json:"scale"`
	Points    int     `json:"points"`
	Dims      int     `json:"dims"`
	H         int     `json:"h"`
	// Workers is the ctree.Build sort parallelism (BuildOptions.Workers).
	Workers int `json:"workers"`
	// BuildSeconds is the best-of-reps wall time of one tree build;
	// PointsPerSec the corresponding throughput.
	BuildSeconds float64 `json:"buildSeconds"`
	PointsPerSec float64 `json:"pointsPerSec"`
	// Allocs is the heap-allocation count (runtime.MemStats.Mallocs
	// delta) of one build — the arena layout's second acceptance
	// number, next to throughput.
	Allocs uint64 `json:"allocs"`
	// CellCount and ArenaBytes describe the finished tree: stored cells
	// and the exact arena slab footprint (ctree.MemoryBytes).
	CellCount  int64  `json:"cellCount"`
	ArenaBytes uint64 `json:"arenaBytes"`
	// ArenaGrows counts slab reallocations across the build (summed
	// over shards for parallel builds).
	ArenaGrows int64 `json:"arenaGrows"`
	// BatchRuns / BatchRunPoints are the sorted-batch statistics:
	// distinct leaf-path runs and the points they carried.
	BatchRuns      int64 `json:"batchRuns"`
	BatchRunPoints int64 `json:"batchRunPoints"`
	// RadixChunks counts the point chunks ordered by the LSD radix
	// kernel (zero when the path key overflows into the multi-word
	// comparison-sort fallback).
	RadixChunks int64 `json:"radixChunks,omitempty"`
	// Speedup is the workers=1 row's BuildSeconds over this row's (0 on
	// the workers=1 row itself).
	Speedup float64 `json:"speedup,omitempty"`
}

// BenchBuild generates the bench dataset once, then times the tree
// build at every worker count, reps times each, keeping the fastest
// wall per row (allocation counts are identical across reps — the
// build is deterministic — so they come from the last rep).
func BenchBuild(opt Options, workerCounts []int) ([]BenchBuildRecord, error) {
	opt = opt.withDefaults()
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 4, 8}
	}
	cfg := benchScanConfig(opt.Scale)
	ds, _, err := synthetic.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("benchbuild: generate: %w", err)
	}
	const reps = 3
	records := make([]BenchBuildRecord, 0, len(workerCounts))
	var baseline float64
	for _, w := range workerCounts {
		var (
			best   float64
			tree   *ctree.Tree
			allocs uint64
		)
		for rep := 0; rep < reps; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			tr, err := ctree.Build(ds, core.DefaultH, ctree.BuildOptions{Workers: w})
			secs := time.Since(start).Seconds()
			runtime.ReadMemStats(&after)
			if err != nil {
				return nil, fmt.Errorf("benchbuild: build (workers=%d): %w", w, err)
			}
			if rep == 0 || secs < best {
				best = secs
			}
			tree = tr
			allocs = after.Mallocs - before.Mallocs
		}
		runs, runPoints := tree.BatchRuns()
		rec := BenchBuildRecord{
			Timestamp:      time.Now().UTC().Format(time.RFC3339),
			Dataset:        "bench-15d-10c",
			Scale:          opt.Scale,
			Points:         ds.Len(),
			Dims:           ds.Dims,
			H:              core.DefaultH,
			Workers:        w,
			BuildSeconds:   best,
			PointsPerSec:   float64(ds.Len()) / best,
			Allocs:         allocs,
			CellCount:      tree.CellCount(),
			ArenaBytes:     tree.MemoryBytes(),
			ArenaGrows:     tree.ArenaGrows(),
			BatchRuns:      runs,
			BatchRunPoints: runPoints,
			RadixChunks:    tree.RadixChunks(),
		}
		if w <= 1 && baseline == 0 {
			baseline = best
		} else if baseline > 0 && best > 0 {
			rec.Speedup = baseline / best
		}
		records = append(records, rec)
	}
	return records, nil
}

// WriteBenchBuild renders the records as one indented JSON document.
func WriteBenchBuild(w io.Writer, records []BenchBuildRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
