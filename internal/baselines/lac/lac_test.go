package lac_test

import (
	"testing"

	"mrcc/internal/baselines/lac"
	"mrcc/internal/baselines/testutil"
	"mrcc/internal/dataset"
)

func TestRunRecoversClusters(t *testing.T) {
	ds, gt := testutil.EasyWorkload(t)
	res, err := lac.Run(ds, lac.Config{K: 3, InvH: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := testutil.Score(t, res, gt)
	t.Logf("LAC quality=%.3f clusters=%d", rep.Quality, testutil.NumClusters(res))
	if rep.Quality < 0.6 {
		t.Errorf("Quality = %.3f, want >= 0.6", rep.Quality)
	}
	if testutil.NumClusters(res) != 3 {
		t.Errorf("found %d clusters, want 3", testutil.NumClusters(res))
	}
}

func TestRunProducesWeights(t *testing.T) {
	ds, gt := testutil.EasyWorkload(t)
	res, err := lac.Run(ds, lac.Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = gt
	if res.Relevant != nil {
		t.Error("LAC must not report relevant axes (it weights them)")
	}
	if len(res.Weights) != 3 {
		t.Fatalf("got %d weight vectors, want 3", len(res.Weights))
	}
	for c, w := range res.Weights {
		sum := 0.0
		for _, v := range w {
			if v < 0 {
				t.Fatalf("cluster %d has a negative weight", c)
			}
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("cluster %d weights sum to %g, want 1", c, sum)
		}
	}
}

func TestRunLabelsEveryPoint(t *testing.T) {
	// LAC finds disjoint groups but no noise: every point is labeled.
	ds, _ := testutil.EasyWorkload(t)
	res, err := lac.Run(ds, lac.Config{K: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range res.Labels {
		if l < 0 || l >= 3 {
			t.Fatalf("point %d has label %d", i, l)
		}
	}
}

func TestRunValidation(t *testing.T) {
	ds, _ := dataset.FromRows([][]float64{{0.1, 0.2}, {0.3, 0.4}})
	for _, cfg := range []lac.Config{
		{K: 0},
		{K: 5},             // more clusters than points
		{K: 1, InvH: -0.5}, // negative 1/h
	} {
		if _, err := lac.Run(ds, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	ds, _ := testutil.EasyWorkload(t)
	a, err := lac.Run(ds, lac.Config{K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := lac.Run(ds, lac.Config{K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different labels")
		}
	}
}
