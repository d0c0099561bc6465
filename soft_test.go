package mrcc_test

import (
	"context"
	"math"
	"reflect"
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

// TestSoftMembershipsNormalizesLikeRun pins SoftMemberships on the
// facade's one normalization: on raw-scale rows it returns, bit for
// bit, the memberships it returns on a copy normalized beforehand, and
// it leaves the caller's rows as they were.
func TestSoftMembershipsNormalizesLikeRun(t *testing.T) {
	raw, err := mrcc.DatasetFromRows(twoClusterRows(100, 900))
	if err != nil {
		t.Fatal(err)
	}
	res, err := mrcc.Run(context.Background(), mrcc.Input{Dataset: raw}, mrcc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pre := raw.Clone()
	if _, _, err := pre.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !pre.IsNormalized() || raw.IsNormalized() {
		t.Fatal("the two inputs must differ in scale")
	}
	before := raw.Clone()
	fromRaw, err := mrcc.SoftMemberships(raw, res)
	if err != nil {
		t.Fatal(err)
	}
	fromPre, err := mrcc.SoftMemberships(pre, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromRaw) != len(fromPre) {
		t.Fatalf("%d rows from raw data, %d from the normalized copy", len(fromRaw), len(fromPre))
	}
	for i := range fromRaw {
		for c := range fromRaw[i] {
			if math.Float64bits(fromRaw[i][c]) != math.Float64bits(fromPre[i][c]) {
				t.Fatalf("point %d cluster %d: %v from raw data, %v from the normalized copy", i, c, fromRaw[i][c], fromPre[i][c])
			}
		}
	}
	if !reflect.DeepEqual(raw.Points, before.Points) {
		t.Fatal("SoftMemberships mutated the caller's dataset")
	}
}
