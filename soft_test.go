package mrcc_test

import (
	"math"
	"testing"

	"mrcc"
)

func TestSoftMembershipsFacade(t *testing.T) {
	rows := twoClusterRows(100, 900) // arbitrary scale: facade renormalizes
	res, err := runRows(rows, mrcc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := mrcc.DatasetFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	soft, err := mrcc.SoftMemberships(ds, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(soft) != len(rows) {
		t.Fatalf("got %d rows, want %d", len(soft), len(rows))
	}
	k := res.NumClusters()
	hardAgree, clustered := 0, 0
	for i, row := range soft {
		if len(row) != k+1 {
			t.Fatalf("row %d has %d columns, want %d", i, len(row), k+1)
		}
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
		if lb := res.Labels[i]; lb != mrcc.Noise {
			clustered++
			best, bestP := -1, -1.0
			for c, v := range row {
				if v > bestP {
					best, bestP = c, v
				}
			}
			if best == lb {
				hardAgree++
			}
		}
	}
	if clustered == 0 {
		t.Fatal("no clustered points")
	}
	if frac := float64(hardAgree) / float64(clustered); frac < 0.9 {
		t.Errorf("soft argmax agrees with hard labels on only %.1f%%", 100*frac)
	}
	// Mutated data must be rejected.
	bad, _ := mrcc.DatasetFromRows(rows[:10])
	if _, err := mrcc.SoftMemberships(bad, res); err == nil {
		t.Error("mismatched dataset accepted")
	}
}
