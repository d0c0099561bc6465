package clique_test

import (
	"testing"

	"mrcc/internal/baselines/clique"
	"mrcc/internal/baselines/testutil"
	"mrcc/internal/dataset"
)

func TestRunRecoversClusters(t *testing.T) {
	ds, gt := testutil.EasyWorkload(t)
	res, err := clique.Run(ds, clique.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := testutil.Score(t, res, gt)
	t.Logf("CLIQUE quality=%.3f subspaces=%.3f clusters=%d",
		rep.Quality, rep.SubspacesQuality, testutil.NumClusters(res))
	if testutil.NumClusters(res) == 0 {
		t.Fatal("CLIQUE found no clusters")
	}
	if rep.Quality < 0.6 {
		t.Errorf("Quality = %.3f, want >= 0.6", rep.Quality)
	}
}

func TestRunValidation(t *testing.T) {
	ds, _ := dataset.FromRows([][]float64{{0.1, 0.2}, {0.3, 0.4}})
	for _, cfg := range []clique.Config{
		{Xi: 1},
		{Tau: 1.5},
		{Tau: -0.1},
		{MaxSubspaceDim: -1},
	} {
		if _, err := clique.Run(ds, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	ds, _ := testutil.EasyWorkload(t)
	a, _ := clique.Run(ds, clique.Config{Tau: 0.02})
	b, _ := clique.Run(ds, clique.Config{Tau: 0.02})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("CLIQUE produced different labels on identical input")
		}
	}
}

func TestRunHighThresholdFindsNothing(t *testing.T) {
	ds, _ := testutil.EasyWorkload(t)
	res, err := clique.Run(ds, clique.Config{Tau: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if testutil.NumClusters(res) != 0 {
		t.Errorf("Tau=0.99 still found %d clusters", testutil.NumClusters(res))
	}
}

func TestRunReportsSubspaces(t *testing.T) {
	ds, _ := testutil.EasyWorkload(t)
	res, err := clique.Run(ds, clique.Config{Tau: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Relevant) != testutil.NumClusters(res) {
		t.Fatalf("relevance rows %d != clusters %d", len(res.Relevant), testutil.NumClusters(res))
	}
}
