package core_test

import (
	"context"
	"testing"
	"time"

	"mrcc/internal/core"
	"mrcc/internal/synthetic"
)

// TestQualityFloors is the quality gate at the paper's full sizes: MrCC
// with the default Config on every dataset of the first group (6d–18d),
// the rotated group (6d_r–18d_r) and the noise group (5o–25o), 12 000
// to 120 000 points each. The pipeline is deterministic, so each
// floor is the Quality and Subspaces Quality measured at commit
// a9f1b2b, truncated to 3 decimals; a kernel rewrite that changes the
// answers fails here. The weak spots stay as measured (16d, 18d and the
// rotated sets; ROADMAP item 3): a change that raises one raises its
// floor, and none may lower one.
func TestQualityFloors(t *testing.T) {
	if testing.Short() {
		t.Skip("19 full-size datasets (12k-120k points) skipped in -short mode")
	}
	for _, c := range []struct {
		name               string
		quality, subspaces float64
	}{
		{"6d", 0.999, 1.000},
		{"8d", 0.999, 1.000},
		{"10d", 0.942, 0.985},
		{"12d", 0.999, 1.000},
		{"14d", 0.968, 1.000},
		{"16d", 0.784, 0.991},
		{"18d", 0.787, 0.988},
		{"6d_r", 0.997, 1.000},
		{"8d_r", 0.493, 1.000},
		{"10d_r", 0.828, 0.931},
		{"12d_r", 0.756, 0.865},
		{"14d_r", 0.881, 0.962},
		{"16d_r", 0.698, 0.921},
		{"18d_r", 0.649, 0.909},
		{"5o", 0.920, 0.990},
		{"10o", 0.968, 1.000},
		{"15o", 0.958, 0.992},
		{"20o", 0.916, 0.991},
		{"25o", 0.903, 0.985},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg, err := synthetic.CatalogueConfig(c.name)
			if err != nil {
				t.Fatal(err)
			}
			ds, gt, err := synthetic.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			rep := quality(t, res, gt)
			t.Logf("%v: %d points, clusters=%d betas=%d, quality=%.3f subspaces=%.3f",
				time.Since(start), ds.Len(), res.NumClusters(), len(res.Betas), rep.Quality, rep.SubspacesQuality)
			if rep.Quality < c.quality {
				t.Errorf("Quality = %.4f, below its floor %.3f", rep.Quality, c.quality)
			}
			if rep.SubspacesQuality < c.subspaces {
				t.Errorf("Subspaces Quality = %.4f, below its floor %.3f", rep.SubspacesQuality, c.subspaces)
			}
		})
	}
}
