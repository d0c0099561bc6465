package harp_test

import (
	"testing"

	"mrcc/internal/baselines/harp"
	"mrcc/internal/baselines/testutil"
	"mrcc/internal/dataset"
	"mrcc/internal/eval"
	"mrcc/internal/synthetic"
)

// smallWorkload keeps HARP's quadratic cost affordable in tests.
func smallWorkload(t testing.TB) (*dataset.Dataset, *synthetic.GroundTruth) {
	t.Helper()
	ds, gt, err := synthetic.Generate(synthetic.Config{
		Dims: 8, Points: 600, Clusters: 3, NoiseFrac: 0.1,
		MinClusterDim: 5, MaxClusterDim: 7, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, gt
}

func TestRunRecoversClusters(t *testing.T) {
	ds, gt := smallWorkload(t)
	res, err := harp.Run(ds, harp.Config{K: 3, NoiseFrac: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eval.Compare(
		&eval.Clustering{Labels: res.Labels, Relevant: res.Relevant},
		&eval.Clustering{Labels: gt.Labels, Relevant: gt.Relevant},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("HARP quality=%.3f subspaces=%.3f clusters=%d",
		rep.Quality, rep.SubspacesQuality, testutil.NumClusters(res))
	if testutil.NumClusters(res) == 0 {
		t.Fatal("HARP found no clusters")
	}
	if rep.Quality < 0.4 {
		t.Errorf("Quality = %.3f, want >= 0.4", rep.Quality)
	}
}

func TestRunNoiseFraction(t *testing.T) {
	ds, _ := smallWorkload(t)
	res, err := harp.Run(ds, harp.Config{K: 3, NoiseFrac: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	noise := 0
	for _, l := range res.Labels {
		if l < 0 {
			noise++
		}
	}
	want := int(0.2 * float64(ds.Len()))
	if noise != want {
		t.Errorf("noise points = %d, want exactly %d (the stated percentile)", noise, want)
	}
}

func TestRunValidation(t *testing.T) {
	ds, _ := dataset.FromRows([][]float64{{0.1, 0.2}, {0.3, 0.4}})
	for _, cfg := range []harp.Config{
		{K: 0},
		{K: 5},
		{K: 1, NoiseFrac: 1.0},
		{K: 1, NoiseFrac: -0.2},
	} {
		if _, err := harp.Run(ds, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	ds, _ := smallWorkload(t)
	a, _ := harp.Run(ds, harp.Config{K: 3, NoiseFrac: 0.1})
	b, _ := harp.Run(ds, harp.Config{K: 3, NoiseFrac: 0.1})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("HARP produced different labels on identical input")
		}
	}
}

func TestRunReachesTargetK(t *testing.T) {
	ds, _ := smallWorkload(t)
	res, err := harp.Run(ds, harp.Config{K: 3, NoiseFrac: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := testutil.NumClusters(res); got != 3 {
		t.Errorf("final clusters = %d, want 3", got)
	}
}
