package cfpc_test

import (
	"testing"

	"mrcc/internal/baselines/cfpc"
	"mrcc/internal/baselines/testutil"
	"mrcc/internal/dataset"
)

func TestRunRecoversClusters(t *testing.T) {
	ds, gt := testutil.EasyWorkload(t)
	res, err := cfpc.Run(ds, cfpc.Config{MaxClusters: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := testutil.Score(t, res, gt)
	t.Logf("CFPC quality=%.3f subspaces=%.3f clusters=%d",
		rep.Quality, rep.SubspacesQuality, testutil.NumClusters(res))
	if testutil.NumClusters(res) == 0 {
		t.Fatal("CFPC found no clusters")
	}
	if rep.Quality < 0.5 {
		t.Errorf("Quality = %.3f, want >= 0.5", rep.Quality)
	}
}

func TestRunRespectsMaxClusters(t *testing.T) {
	ds, _ := testutil.EasyWorkload(t)
	res, err := cfpc.Run(ds, cfpc.Config{MaxClusters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if testutil.NumClusters(res) > 2 {
		t.Errorf("found %d clusters, allowed 2", testutil.NumClusters(res))
	}
}

func TestRunValidation(t *testing.T) {
	ds, _ := dataset.FromRows([][]float64{{0.1, 0.2}, {0.3, 0.4}})
	for _, cfg := range []cfpc.Config{
		{MaxClusters: 0},
		{MaxClusters: 1, W: 2},
		{MaxClusters: 1, Alpha: 1.5},
		{MaxClusters: 1, Beta: -1},
	} {
		if _, err := cfpc.Run(ds, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	ds, _ := testutil.EasyWorkload(t)
	a, _ := cfpc.Run(ds, cfpc.Config{MaxClusters: 3, Seed: 5})
	b, _ := cfpc.Run(ds, cfpc.Config{MaxClusters: 3, Seed: 5})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different labels")
		}
	}
}

func TestRunDisjointClusters(t *testing.T) {
	// Each extraction removes its points: labels must be disjoint by
	// construction, and some points should stay noise on noisy data.
	ds, _ := testutil.EasyWorkload(t)
	res, err := cfpc.Run(ds, cfpc.Config{MaxClusters: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	noise := 0
	for _, l := range res.Labels {
		if l < 0 {
			noise++
		}
	}
	if noise == 0 {
		t.Log("warning: no noise detected on a 10%-noise dataset")
	}
}
