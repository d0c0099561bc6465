package experiments

import (
	"context"
	"fmt"
	"io"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/eval"
	"mrcc/internal/synthetic"
)

// FigureIDs lists every experiment the harness can regenerate, in the
// paper's order, with a short description.
func FigureIDs() []struct{ ID, Description string } {
	return []struct{ ID, Description string }{
		{"fig4-alpha", "Fig. 4a-c: MrCC sensitivity to the significance level α (first group)"},
		{"fig4-h", "Fig. 4d-f: MrCC sensitivity to the resolution count H (first group)"},
		{"fig5-first", "Fig. 5a-c (+5s): all methods on the first group 6d..18d"},
		{"fig5-noise", "Fig. 5d-f: all methods, noise 5%..25% (base 14d)"},
		{"fig5-points", "Fig. 5g-i: all methods, 50k..250k points (base 14d)"},
		{"fig5-clusters", "Fig. 5j-l: all methods, 5..25 clusters (base 14d)"},
		{"fig5-dims", "Fig. 5m-o: all methods, 5..30 axes (base 14d)"},
		{"fig5-rotated", "Fig. 5p-r: all methods on the rotated group 6d_r..18d_r"},
		{"fig5-real", "Fig. 5t: EPCH/CFPC/HARP/MrCC on the KDD Cup 2008 surrogate (left MLO)"},
		{"extras", "Bonus baselines (PROCLUS, CLIQUE, ORCLUS) vs MrCC on the first group"},
		{"scaling", "Section III complexity claims: MrCC time/memory vs η, d and H"},
		{"ablation-mask", "A-mask: face-only vs full 3^d Laplacian mask"},
		{"ablation-mdl", "A-mdl: MDL-tuned vs fixed relevance thresholds"},
	}
}

// RunFigure dispatches a figure runner by ID and writes its table to w.
func RunFigure(id string, w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	switch id {
	case "fig4-alpha":
		return figSensitivityAlpha(w, opt)
	case "fig4-h":
		return figSensitivityH(w, opt)
	case "fig5-first":
		return figCompare(w, opt, synthetic.FirstGroupNames())
	case "fig5-noise":
		return figCompare(w, opt, synthetic.NoiseGroupNames())
	case "fig5-points":
		return figCompare(w, opt, synthetic.PointsGroupNames())
	case "fig5-clusters":
		return figCompare(w, opt, synthetic.ClustersGroupNames())
	case "fig5-dims":
		return figCompare(w, opt, synthetic.DimsGroupNames())
	case "fig5-rotated":
		return figCompare(w, opt, synthetic.RotatedGroupNames())
	case "fig5-real":
		return figRealData(w, opt)
	case "extras":
		if len(opt.Methods) == 0 {
			opt.Methods = append([]string{"MrCC"}, BonusMethodNames()...)
		}
		return figCompare(w, opt, []string{"6d", "10d", "14d"})
	case "scaling":
		return figScaling(w, opt)
	case "ablation-mask":
		return figAblationMask(w, opt)
	case "ablation-mdl":
		return figAblationMDL(w, opt)
	default:
		return fmt.Errorf("experiments: unknown figure %q (see FigureIDs)", id)
	}
}

// figCompare runs every configured method over the named datasets —
// the engine behind Figures 5a-r (Quality, Subspaces Quality, memory,
// time per dataset and method).
func figCompare(w io.Writer, opt Options, names []string) error {
	var rows []Measurement
	for _, name := range names {
		ds, gt, _, err := loadCatalogue(name, opt.Scale)
		if err != nil {
			return err
		}
		rows = append(rows, CompareMethods(name, ds, gt, opt)...)
		if _, err := fmt.Fprint(w, FormatTable(rows[len(rows)-len(Methods(opt)):])); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "\n== summary ==\n%s", FormatTable(rows))
	return err
}

// CompareMethods measures every configured method once on one dataset.
func CompareMethods(name string, ds *dataset.Dataset, gt *synthetic.GroundTruth, opt Options) []Measurement {
	var rows []Measurement
	for _, m := range Methods(opt) {
		rows = append(rows, runOne(name, m, ds, gt, opt))
	}
	return rows
}

// runOne measures a single (method, dataset) cell.
func runOne(name string, m Method, ds *dataset.Dataset, gt *synthetic.GroundTruth, opt Options) Measurement {
	row := Measurement{Dataset: name, Method: m.Name}
	runDS, runGT := ds, gt
	if m.Name == "HARP" {
		var capped bool
		runDS, runGT, capped = subsample(ds, gt, opt.HarpCap)
		if capped {
			row.Note = fmt.Sprintf("n capped at %d (quadratic method)", runDS.Len())
		}
	}
	var found *eval.Clustering
	seconds, peakKB, err := measureRun(func() error {
		var err error
		found, err = m.Run(runDS, runGT, opt)
		return err
	})
	row.Seconds = seconds
	row.MemoryKB = peakKB
	if err != nil {
		row.Note = "error: " + err.Error()
		return row
	}
	rep, err := score(found, runGT)
	if err != nil {
		row.Note = "error: " + err.Error()
		return row
	}
	row.Quality = rep.Quality
	row.SubspacesQuality = rep.SubspacesQuality
	row.Clusters = rep.FoundClusters
	return row
}

// figSensitivityAlpha reproduces Figure 4a-c: MrCC's Quality, memory and
// time across significance levels, H fixed at 4. The Counting-tree is
// built once per dataset and reused, mirroring that only phase two
// depends on α; every α's run builds its own level index, so each row
// times the same work.
func figSensitivityAlpha(w io.Writer, opt Options) error {
	alphas := []float64{1e-3, 1e-5, 1e-10, 1e-20, 1e-40, 1e-80, 1e-160}
	var rows []Measurement
	for _, name := range synthetic.FirstGroupNames() {
		ds, gt, _, err := loadCatalogue(name, opt.Scale)
		if err != nil {
			return err
		}
		tree, err := ctree.Build(ds, core.DefaultH, ctree.BuildOptions{Workers: opt.Workers})
		if err != nil {
			return err
		}
		for _, alpha := range alphas {
			a := alpha
			var res *core.Result
			seconds, peakKB, err := measureRun(func() error {
				var err error
				res, err = core.Run(context.Background(), core.Input{Dataset: ds, Trees: []*ctree.Tree{tree}}, core.Config{Alpha: a, H: core.DefaultH, Workers: opt.Workers})
				return err
			})
			row := Measurement{Dataset: name, Method: "MrCC",
				Seconds: seconds, MemoryKB: peakKB, Note: fmt.Sprintf("alpha=%.0e", a)}
			if err != nil {
				row.Note += " error: " + err.Error()
			} else {
				rep, err := score(clusteringOf(res), gt)
				if err != nil {
					return err
				}
				row.Quality = rep.Quality
				row.SubspacesQuality = rep.SubspacesQuality
				row.Clusters = res.NumClusters()
			}
			rows = append(rows, row)
		}
	}
	_, err := fmt.Fprint(w, FormatTable(rows))
	return err
}

// figSensitivityH reproduces Figure 4d-f: MrCC across resolution counts,
// α fixed at 1e-10. The paper sweeps 4..80; beyond MaxLevels extra
// resolutions are numerically meaningless, so the sweep stops there.
func figSensitivityH(w io.Writer, opt Options) error {
	hs := []int{4, 5, 10, 20, 40, ctree.MaxLevels}
	var rows []Measurement
	for _, name := range synthetic.FirstGroupNames() {
		ds, gt, _, err := loadCatalogue(name, opt.Scale)
		if err != nil {
			return err
		}
		for _, h := range hs {
			hh := h
			var res *core.Result
			seconds, peakKB, err := measureRun(func() error {
				var err error
				res, err = core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{Alpha: core.DefaultAlpha, H: hh, Workers: opt.Workers})
				return err
			})
			row := Measurement{Dataset: name, Method: "MrCC",
				Seconds: seconds, MemoryKB: peakKB, Note: fmt.Sprintf("H=%d", hh)}
			if err != nil {
				row.Note += " error: " + err.Error()
			} else {
				rep, err := score(clusteringOf(res), gt)
				if err != nil {
					return err
				}
				row.Quality = rep.Quality
				row.SubspacesQuality = rep.SubspacesQuality
				row.Clusters = res.NumClusters()
			}
			rows = append(rows, row)
		}
	}
	_, err := fmt.Fprint(w, FormatTable(rows))
	return err
}

// figRealData reproduces Figure 5t on the KDD Cup 2008 surrogate:
// Quality, KB and seconds for EPCH, CFPC, HARP and MrCC on the left-MLO
// view. (The paper dropped LAC — it degenerated to one cluster — and
// P3C, which exceeded a week; pass Options.Methods to try them anyway.)
func figRealData(w io.Writer, opt Options) error {
	if len(opt.Methods) == 0 {
		opt.Methods = []string{"EPCH", "CFPC", "HARP", "MrCC"}
	}
	rois := int(25575 * opt.Scale)
	ds, gt, err := synthetic.KDDCup2008Surrogate(synthetic.LeftMLO, synthetic.KDDConfig{ROIs: rois, Seed: 2008})
	if err != nil {
		return err
	}
	rows := CompareMethods("kdd-lmlo", ds, gt, opt)
	_, err = fmt.Fprint(w, FormatTable(rows))
	return err
}

// figScaling verifies the Section III complexity claims: series of MrCC
// time and memory against η, d and H, for the linearity regressions in
// EXPERIMENTS.md.
func figScaling(w io.Writer, opt Options) error {
	var rows []Measurement
	run := func(label string, cfg synthetic.Config, mrccCfg core.Config) error {
		if mrccCfg.H == 0 {
			mrccCfg.H = core.DefaultH
		}
		mrccCfg.Workers = opt.Workers
		ds, _, err := synthetic.Generate(cfg)
		if err != nil {
			return err
		}
		var res *core.Result
		seconds, peakKB, err := measureRun(func() error {
			var err error
			res, err = core.Run(context.Background(), core.Input{Dataset: ds}, mrccCfg)
			return err
		})
		if err != nil {
			return err
		}
		rows = append(rows, Measurement{
			Dataset: label, Method: "MrCC", Clusters: res.NumClusters(),
			Seconds: seconds, MemoryKB: peakKB,
			Note: fmt.Sprintf("eta=%d d=%d H=%d", ds.Len(), ds.Dims, mrccCfg.H),
		})
		return nil
	}
	base := synthetic.Config{Dims: 14, Clusters: 10, NoiseFrac: 0.15,
		MinClusterDim: 5, MaxClusterDim: 14, Seed: 99}
	for _, eta := range []int{25000, 50000, 100000, 150000, 200000, 250000} {
		cfg := base
		cfg.Points = int(float64(eta) * opt.Scale)
		if err := run("eta-scan", cfg, core.Config{}); err != nil {
			return err
		}
	}
	for _, d := range []int{5, 10, 15, 20, 25, 30} {
		cfg := base
		cfg.Dims = d
		cfg.MaxClusterDim = d
		cfg.Points = int(90000 * opt.Scale)
		if err := run("d-scan", cfg, core.Config{}); err != nil {
			return err
		}
	}
	for _, h := range []int{4, 6, 8, 10, 14, 18} {
		cfg := base
		cfg.Points = int(90000 * opt.Scale)
		if err := run("H-scan", cfg, core.Config{H: h}); err != nil {
			return err
		}
	}
	_, err := fmt.Fprint(w, FormatTable(rows))
	return err
}

// figAblationMask quantifies the paper's face-only mask choice: the full
// 3^d mask costs O(3^d) per cell for (the paper argues) little quality
// gain. Run on the low-dimensional datasets where the full mask is
// tractable at all.
func figAblationMask(w io.Writer, opt Options) error {
	var rows []Measurement
	for _, name := range []string{"6d", "8d"} {
		ds, gt, _, err := loadCatalogue(name, opt.Scale)
		if err != nil {
			return err
		}
		for _, full := range []bool{false, true} {
			mode := "face-only"
			if full {
				mode = "full-3^d"
			}
			cfg := core.Config{Workers: opt.Workers}
			if full {
				cfg = core.WithFullMask(cfg)
			}
			var res *core.Result
			seconds, peakKB, err := measureRun(func() error {
				var err error
				res, err = core.Run(context.Background(), core.Input{Dataset: ds}, cfg)
				return err
			})
			if err != nil {
				return err
			}
			rep, err := score(clusteringOf(res), gt)
			if err != nil {
				return err
			}
			rows = append(rows, Measurement{
				Dataset: name, Method: "MrCC", Quality: rep.Quality,
				SubspacesQuality: rep.SubspacesQuality, Clusters: res.NumClusters(),
				Seconds: seconds, MemoryKB: peakKB, Note: mode,
			})
		}
	}
	_, err := fmt.Fprint(w, FormatTable(rows))
	return err
}

// figAblationMDL quantifies the MDL relevance cut against fixed
// thresholds, the design decision DESIGN.md calls out.
func figAblationMDL(w io.Writer, opt Options) error {
	var rows []Measurement
	for _, name := range synthetic.FirstGroupNames() {
		ds, gt, _, err := loadCatalogue(name, opt.Scale)
		if err != nil {
			return err
		}
		for _, thr := range []float64{0, 50, 80, 95} {
			mode := "MDL"
			if thr > 0 {
				mode = fmt.Sprintf("fixed=%.0f", thr)
			}
			cfg := core.WithRelevanceThreshold(core.Config{Workers: opt.Workers}, thr)
			var res *core.Result
			seconds, peakKB, err := measureRun(func() error {
				var err error
				res, err = core.Run(context.Background(), core.Input{Dataset: ds}, cfg)
				return err
			})
			if err != nil {
				return err
			}
			rep, err := score(clusteringOf(res), gt)
			if err != nil {
				return err
			}
			rows = append(rows, Measurement{
				Dataset: name, Method: "MrCC", Quality: rep.Quality,
				SubspacesQuality: rep.SubspacesQuality, Clusters: res.NumClusters(),
				Seconds: seconds, MemoryKB: peakKB, Note: mode,
			})
		}
	}
	_, err := fmt.Fprint(w, FormatTable(rows))
	return err
}

// clusteringOf converts a core result into an eval clustering.
func clusteringOf(res *core.Result) *eval.Clustering {
	rel := make([][]bool, len(res.Clusters))
	for i, c := range res.Clusters {
		rel[i] = c.Relevant
	}
	return &eval.Clustering{Labels: res.Labels, Relevant: rel}
}
