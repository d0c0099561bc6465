package core_test

import (
	"context"
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/synthetic"
)

// TestKDDSurrogateLesionRecovery pins the real-data scenario of
// Figure 5t: on the mammography surrogate MrCC must isolate a cluster
// dominated by malignant ROIs despite the ~0.7 % base rate.
func TestKDDSurrogateLesionRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("surrogate scenario skipped in -short mode")
	}
	ds, gt, err := synthetic.KDDCup2008Surrogate(synthetic.LeftMLO,
		synthetic.KDDConfig{ROIs: 5000, Seed: 2008})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() == 0 {
		t.Fatal("no clusters on the surrogate")
	}
	bestShare := 0.0
	recovered := 0
	totalMalig := 0
	for _, l := range gt.Labels {
		if l == 1 {
			totalMalig++
		}
	}
	for _, c := range res.Clusters {
		malig := 0
		for i, l := range res.Labels {
			if l == c.ID && gt.Labels[i] == 1 {
				malig++
			}
		}
		if c.Size > 0 {
			if share := float64(malig) / float64(c.Size); share > bestShare {
				bestShare = share
				recovered = malig
			}
		}
	}
	t.Logf("purest cluster: %.0f%% malignant, %d of %d malignant ROIs", bestShare*100, recovered, totalMalig)
	if bestShare < 0.8 {
		t.Errorf("purest cluster only %.0f%% malignant, want >= 80%%", bestShare*100)
	}
	if float64(recovered) < 0.8*float64(totalMalig) {
		t.Errorf("recovered %d of %d malignant ROIs, want >= 80%%", recovered, totalMalig)
	}
}
