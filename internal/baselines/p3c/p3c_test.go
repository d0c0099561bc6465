package p3c_test

import (
	"testing"

	"mrcc/internal/baselines/p3c"
	"mrcc/internal/baselines/testutil"
	"mrcc/internal/dataset"
)

func TestRunRecoversClusters(t *testing.T) {
	ds, gt := testutil.EasyWorkload(t)
	res, err := p3c.Run(ds, p3c.Config{PoissonThreshold: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	rep := testutil.Score(t, res, gt)
	t.Logf("P3C quality=%.3f subspaces=%.3f clusters=%d",
		rep.Quality, rep.SubspacesQuality, testutil.NumClusters(res))
	if testutil.NumClusters(res) == 0 {
		t.Fatal("P3C found no clusters")
	}
	if rep.Quality < 0.4 {
		t.Errorf("Quality = %.3f, want >= 0.4", rep.Quality)
	}
}

func TestRunReportsSubspaces(t *testing.T) {
	ds, _ := testutil.EasyWorkload(t)
	res, err := p3c.Run(ds, p3c.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Relevant) != testutil.NumClusters(res) {
		t.Fatalf("relevance rows %d != clusters %d", len(res.Relevant), testutil.NumClusters(res))
	}
	for k, rel := range res.Relevant {
		n := 0
		for _, r := range rel {
			if r {
				n++
			}
		}
		if n < 2 {
			t.Errorf("cluster %d core has %d axes, want >= 2", k, n)
		}
	}
}

func TestRunValidation(t *testing.T) {
	ds, _ := dataset.FromRows([][]float64{{0.1, 0.2}, {0.3, 0.4}})
	for _, cfg := range []p3c.Config{
		{PoissonThreshold: 1.5},
		{PoissonThreshold: -0.1},
		{ChiAlpha: 2},
	} {
		if _, err := p3c.Run(ds, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestRunUniformDataFindsLittle(t *testing.T) {
	// On pure uniform noise P3C must not hallucinate strong structure.
	rows := make([][]float64, 2000)
	seed := uint64(12345)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11) / float64(1<<53)
	}
	for i := range rows {
		rows[i] = []float64{next(), next(), next(), next(), next()}
	}
	ds, err := dataset.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p3c.Run(ds, p3c.Config{})
	if err != nil {
		t.Fatal(err)
	}
	clustered := 0
	for _, l := range res.Labels {
		if l >= 0 {
			clustered++
		}
	}
	if frac := float64(clustered) / 2000; frac > 0.3 {
		t.Errorf("%.0f%% of uniform noise clustered", frac*100)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	ds, _ := testutil.EasyWorkload(t)
	a, _ := p3c.Run(ds, p3c.Config{})
	b, _ := p3c.Run(ds, p3c.Config{})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("P3C produced different labels on identical input")
		}
	}
}
