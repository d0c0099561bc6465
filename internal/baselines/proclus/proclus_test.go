package proclus_test

import (
	"testing"

	"mrcc/internal/baselines/proclus"
	"mrcc/internal/baselines/testutil"
	"mrcc/internal/dataset"
)

func TestRunRecoversClusters(t *testing.T) {
	ds, gt := testutil.EasyWorkload(t)
	res, err := proclus.Run(ds, proclus.Config{K: 3, AvgDim: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := testutil.Score(t, res, gt)
	t.Logf("PROCLUS quality=%.3f subspaces=%.3f clusters=%d",
		rep.Quality, rep.SubspacesQuality, testutil.NumClusters(res))
	if rep.Quality < 0.5 {
		t.Errorf("Quality = %.3f, want >= 0.5", rep.Quality)
	}
}

func TestRunDimensionBudget(t *testing.T) {
	ds, _ := testutil.EasyWorkload(t)
	res, err := proclus.Run(ds, proclus.Config{K: 3, AvgDim: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for k, rel := range res.Relevant {
		n := 0
		for _, r := range rel {
			if r {
				n++
			}
		}
		if n < 2 {
			t.Errorf("cluster %d selects %d axes, want >= 2", k, n)
		}
		total += n
	}
	if total > 3*4+2 {
		t.Errorf("total selected axes %d exceed the K·l budget", total)
	}
}

func TestRunValidation(t *testing.T) {
	ds, _ := dataset.FromRows([][]float64{{0.1, 0.2}, {0.3, 0.4}})
	for _, cfg := range []proclus.Config{
		{K: 0, AvgDim: 2},
		{K: 1, AvgDim: 1},
		{K: 1, AvgDim: 5}, // exceeds dimensionality
		{K: 5, AvgDim: 2}, // exceeds points
	} {
		if _, err := proclus.Run(ds, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	ds, _ := testutil.EasyWorkload(t)
	a, _ := proclus.Run(ds, proclus.Config{K: 3, AvgDim: 6, Seed: 4})
	b, _ := proclus.Run(ds, proclus.Config{K: 3, AvgDim: 6, Seed: 4})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different labels")
		}
	}
}
