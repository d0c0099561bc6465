package experiments

// Bench-scan emission (ISSUE 3): a machine-readable record of the
// phase-two (β-search) speedup delivered by the one-shot convolution
// cache, one JSON document per invocation, mirroring
// BenchmarkBetaSearch's dataset (15-dim, 10-cluster, 15% noise, seed
// 314, 100k points at scale 1). The naive row is the pre-PR per-pass
// re-convolving scan (core.Config.NaiveScan) at Workers=1; the cached
// rows are the default incremental scan at 1, 4 and 8 workers. All
// rows share one pre-built Counting-tree (ResetUsed between runs), so
// the record isolates phase two exactly the way the benchmark does. CI
// runs this at a small scale as a smoke test and uploads
// results/bench_scan.json as an artifact; EXPERIMENTS.md records a
// full-scale baseline row.

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/obs"
	"mrcc/internal/synthetic"
)

// BenchScanRecord is one (mode, workers) row of a bench-scan run.
type BenchScanRecord struct {
	Timestamp string  `json:"timestamp"`
	Dataset   string  `json:"dataset"`
	Scale     float64 `json:"scale"`
	Points    int     `json:"points"`
	Dims      int     `json:"dims"`
	H         int     `json:"h"`
	// Mode is "naive" (pre-PR per-pass re-convolution) or "cached"
	// (the default one-shot convolution cache).
	Mode    string `json:"mode"`
	Workers int    `json:"workers"`
	// BetaSearchSeconds is the phase-two wall time (Result.Timings
	// .FindBetas), the quantity the cache accelerates.
	BetaSearchSeconds float64 `json:"betaSearchSeconds"`
	// TotalSeconds is the whole RunOnTree call (phases two + three).
	TotalSeconds float64 `json:"totalSeconds"`
	BetaClusters int     `json:"betaClusters"`
	Clusters     int     `json:"clusters"`
	// BetaSearchSpeedup is naive-Workers=1 phase-two time over this
	// row's (0 on the baseline row itself).
	BetaSearchSpeedup float64    `json:"betaSearchSpeedup,omitempty"`
	Stats             *obs.Stats `json:"stats"`
}

// benchScanConfig is the dataset of BenchmarkBetaSearch at the given
// scale: 100k × scale points in 15 dims, 10 subspace clusters, 15%
// noise, seed 314.
func benchScanConfig(scale float64) synthetic.Config {
	points := int(100000 * scale)
	if points < 100 {
		points = 100
	}
	return synthetic.Config{
		Dims: 15, Points: points, Clusters: 10, NoiseFrac: 0.15,
		MinClusterDim: 8, MaxClusterDim: 13, Seed: 314,
	}
}

// BenchScan builds the bench tree once, then runs phase two + three
// over it for every (mode, workers) row — naive at Workers=1, cached at
// each entry of workerCounts — with stats collection on, and returns
// one record per run.
func BenchScan(opt Options, workerCounts []int) ([]BenchScanRecord, error) {
	opt = opt.withDefaults()
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 4, 8}
	}
	cfg := benchScanConfig(opt.Scale)
	ds, _, err := synthetic.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("benchscan: generate: %w", err)
	}
	tree, err := ctree.Build(ds, core.DefaultH, ctree.BuildOptions{})
	if err != nil {
		return nil, fmt.Errorf("benchscan: build tree: %w", err)
	}
	type row struct {
		mode    string
		naive   bool
		workers int
	}
	rows := []row{{"naive", true, 1}}
	for _, w := range workerCounts {
		rows = append(rows, row{"cached", false, w})
	}
	records := make([]BenchScanRecord, 0, len(rows))
	var baseline float64
	for _, r := range rows {
		tree.ResetUsed()
		start := time.Now()
		res, err := core.RunOnTree(tree, ds, core.Config{
			NaiveScan: r.naive, Workers: r.workers, CollectStats: true,
		})
		if err != nil {
			return nil, fmt.Errorf("benchscan: run (%s, workers=%d): %w", r.mode, r.workers, err)
		}
		total := time.Since(start).Seconds()
		rec := BenchScanRecord{
			Timestamp:         time.Now().UTC().Format(time.RFC3339),
			Dataset:           "bench-15d-10c",
			Scale:             opt.Scale,
			Points:            ds.Len(),
			Dims:              ds.Dims,
			H:                 core.DefaultH,
			Mode:              r.mode,
			Workers:           r.workers,
			BetaSearchSeconds: res.Timings.FindBetas.Seconds(),
			TotalSeconds:      total,
			BetaClusters:      len(res.Betas),
			Clusters:          res.NumClusters(),
			Stats:             res.Stats,
		}
		if r.mode == "naive" && r.workers == 1 {
			baseline = rec.BetaSearchSeconds
		} else if baseline > 0 && rec.BetaSearchSeconds > 0 {
			rec.BetaSearchSpeedup = baseline / rec.BetaSearchSeconds
		}
		records = append(records, rec)
	}
	return records, nil
}

// WriteBenchScan renders the records as one indented JSON document.
func WriteBenchScan(w io.Writer, records []BenchScanRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
