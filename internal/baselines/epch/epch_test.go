package epch_test

import (
	"testing"

	"mrcc/internal/baselines/epch"
	"mrcc/internal/baselines/testutil"
	"mrcc/internal/dataset"
)

func TestRunRecoversClusters(t *testing.T) {
	ds, gt := testutil.EasyWorkload(t)
	res, err := epch.Run(ds, epch.Config{MaxClusters: 3, HistDim: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := testutil.Score(t, res, gt)
	t.Logf("EPCH quality=%.3f subspaces=%.3f clusters=%d",
		rep.Quality, rep.SubspacesQuality, testutil.NumClusters(res))
	if rep.Quality < 0.5 {
		t.Errorf("Quality = %.3f, want >= 0.5", rep.Quality)
	}
	if testutil.NumClusters(res) > 3 {
		t.Errorf("found %d clusters, allowed at most 3", testutil.NumClusters(res))
	}
}

func TestRun2DHistograms(t *testing.T) {
	ds, gt := testutil.EasyWorkload(t)
	res, err := epch.Run(ds, epch.Config{MaxClusters: 3, HistDim: 2, Bins: 10})
	if err != nil {
		t.Fatal(err)
	}
	rep := testutil.Score(t, res, gt)
	t.Logf("EPCH-2d quality=%.3f clusters=%d", rep.Quality, testutil.NumClusters(res))
	if testutil.NumClusters(res) == 0 {
		t.Error("2-d histograms found nothing")
	}
}

func TestRunReportsSubspaces(t *testing.T) {
	ds, _ := testutil.EasyWorkload(t)
	res, err := epch.Run(ds, epch.Config{MaxClusters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Relevant) != testutil.NumClusters(res) {
		t.Fatalf("relevance rows %d != clusters %d", len(res.Relevant), testutil.NumClusters(res))
	}
	for k, rel := range res.Relevant {
		any := false
		for _, r := range rel {
			any = any || r
		}
		if !any {
			t.Errorf("cluster %d has no relevant axes", k)
		}
	}
}

func TestRunValidation(t *testing.T) {
	ds, _ := dataset.FromRows([][]float64{{0.1, 0.2}, {0.3, 0.4}})
	for _, cfg := range []epch.Config{
		{MaxClusters: 0},
		{MaxClusters: 1, HistDim: 4},
		{MaxClusters: 1, HistDim: 3}, // exceeds dimensionality 2
	} {
		if _, err := epch.Run(ds, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	ds, _ := testutil.EasyWorkload(t)
	a, _ := epch.Run(ds, epch.Config{MaxClusters: 3})
	b, _ := epch.Run(ds, epch.Config{MaxClusters: 3})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("EPCH produced different labels on identical input")
		}
	}
}
