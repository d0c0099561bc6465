package orclus_test

import (
	"testing"

	"mrcc/internal/baselines/orclus"
	"mrcc/internal/baselines/testutil"
	"mrcc/internal/dataset"
	"mrcc/internal/eval"
	"mrcc/internal/synthetic"
)

func TestRunRecoversClusters(t *testing.T) {
	ds, gt := testutil.EasyWorkload(t)
	res, err := orclus.Run(ds, orclus.Config{K: 3, L: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := testutil.Score(t, res, gt)
	t.Logf("ORCLUS quality=%.3f clusters=%d", rep.Quality, testutil.NumClusters(res))
	if testutil.NumClusters(res) != 3 {
		t.Errorf("found %d clusters, want 3", testutil.NumClusters(res))
	}
	if rep.Quality < 0.5 {
		t.Errorf("Quality = %.3f, want >= 0.5", rep.Quality)
	}
}

func TestRunHandlesRotatedClusters(t *testing.T) {
	// ORCLUS's selling point: arbitrarily-oriented subspaces.
	ds, gt, err := synthetic.Generate(synthetic.Config{
		Dims: 8, Points: 3000, Clusters: 2, NoiseFrac: 0.05,
		MinClusterDim: 5, MaxClusterDim: 7, Seed: 3, Rotations: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := orclus.Run(ds, orclus.Config{K: 2, L: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eval.Compare(
		&eval.Clustering{Labels: res.Labels},
		&eval.Clustering{Labels: gt.Labels, Relevant: gt.Relevant},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ORCLUS rotated quality=%.3f", rep.Quality)
	if rep.Quality < 0.5 {
		t.Errorf("rotated Quality = %.3f, want >= 0.5", rep.Quality)
	}
}

func TestRunValidation(t *testing.T) {
	ds, _ := dataset.FromRows([][]float64{{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}})
	for _, cfg := range []orclus.Config{
		{K: 0, L: 1},
		{K: 1, L: 0},
		{K: 1, L: 3},           // L exceeds dimensionality
		{K: 1, L: 1, Alpha: 2}, // bad alpha
		{K: 9, L: 1, K0: 5},    // K exceeds seeds
	} {
		if _, err := orclus.Run(ds, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	ds, _ := testutil.EasyWorkload(t)
	a, _ := orclus.Run(ds, orclus.Config{K: 3, L: 5, Seed: 7})
	b, _ := orclus.Run(ds, orclus.Config{K: 3, L: 5, Seed: 7})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different labels")
		}
	}
}
