// Package experiments is the benchmark harness that regenerates every
// table and figure of the paper's evaluation (Section IV): the
// sensitivity analysis (Figure 4), the synthetic-data comparisons
// (Figure 5a-s), the real-data table (Figure 5t, on the KDD Cup 2008
// surrogate), the complexity scaling checks and the design ablations.
//
// Each figure runner produces the same rows/series the paper plots;
// cmd/experiments prints them and EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"mrcc/internal/dataset"
	"mrcc/internal/eval"
	"mrcc/internal/synthetic"
)

// Measurement is one cell of a figure: one method on one dataset.
type Measurement struct {
	Dataset          string
	Method           string
	Quality          float64
	SubspacesQuality float64
	Clusters         int
	MemoryKB         uint64
	Seconds          float64
	Note             string
}

// Options tunes the harness.
type Options struct {
	// Scale multiplies every catalogue dataset's point count (1.0 for
	// the paper's full sizes; benches use ~0.05-0.1).
	Scale float64
	// HarpCap subsamples datasets above this many points before running
	// HARP, whose quadratic cost is otherwise prohibitive (the paper's
	// own runs needed 34 GB and 1000+ seconds). 0 means no cap.
	HarpCap int
	// Methods filters which methods run (nil = all six of the paper's).
	Methods []string
	// Sweep enables the per-method parameter sweeps of Section IV-E
	// (best Quality wins); off, each method runs its recommended
	// configuration once.
	Sweep bool
	// Workers sets the MrCC pipeline parallelism (core.Config.Workers):
	// 0 = GOMAXPROCS, 1 = serial. The clustering output is identical
	// either way; only the timings change.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	return o
}

func (o Options) wantsMethod(name string) bool {
	if len(o.Methods) == 0 {
		return true
	}
	for _, m := range o.Methods {
		if m == name {
			return true
		}
	}
	return false
}

// measureRun times fn and samples the heap to estimate its peak memory
// use, the way the paper reports KB per method.
func measureRun(fn func() error) (seconds float64, peakKB uint64, err error) {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak.Load() {
					peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()
	start := time.Now()
	err = fn()
	seconds = time.Since(start).Seconds()
	close(stop)
	<-done
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > peak.Load() {
		peak.Store(after.HeapAlloc)
	}
	used := int64(peak.Load()) - int64(base.HeapAlloc)
	if used < 0 {
		used = 0
	}
	return seconds, uint64(used) / 1024, err
}

// score evaluates a clustering against the ground truth.
func score(found *eval.Clustering, gt *synthetic.GroundTruth) (eval.Report, error) {
	return eval.Compare(found, &eval.Clustering{Labels: gt.Labels, Relevant: gt.Relevant})
}

// loadCatalogue generates a (possibly scaled) catalogue dataset.
func loadCatalogue(name string, scale float64) (*dataset.Dataset, *synthetic.GroundTruth, synthetic.Config, error) {
	cfg, err := synthetic.CatalogueConfig(name)
	if err != nil {
		return nil, nil, cfg, err
	}
	if scale != 1.0 {
		cfg = cfg.Scale(scale)
	}
	ds, gt, err := synthetic.Generate(cfg)
	return ds, gt, cfg, err
}

// subsample returns a dataset/ground-truth pair capped at n points
// (deterministic stride sampling) and whether it capped them. The
// harness applies it to HARP, whose quadratic cost would otherwise
// dominate every run.
func subsample(ds *dataset.Dataset, gt *synthetic.GroundTruth, n int) (*dataset.Dataset, *synthetic.GroundTruth, bool) {
	if n <= 0 || ds.Len() <= n {
		return ds, gt, false
	}
	out := dataset.New(ds.Dims, n)
	labels := make([]int, 0, n)
	stride := float64(ds.Len()) / float64(n)
	for i := 0; i < n; i++ {
		idx := int(float64(i) * stride)
		out.Append(ds.Points[idx])
		labels = append(labels, gt.Labels[idx])
	}
	return out, &synthetic.GroundTruth{Labels: labels, Relevant: gt.Relevant}, true
}

// FormatTable renders measurements as an aligned text table, one row per
// (dataset, method).
func FormatTable(ms []Measurement) string {
	out := fmt.Sprintf("%-8s %-8s %8s %9s %9s %12s %10s  %s\n",
		"dataset", "method", "quality", "subspace", "clusters", "memory(KB)", "time(s)", "note")
	for _, m := range ms {
		out += fmt.Sprintf("%-8s %-8s %8.3f %9.3f %9d %12d %10.3f  %s\n",
			m.Dataset, m.Method, m.Quality, m.SubspacesQuality, m.Clusters, m.MemoryKB, m.Seconds, m.Note)
	}
	return out
}
