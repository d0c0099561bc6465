package core_test

import (
	"context"
	"math"
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/synthetic"
)

func TestSoftMembershipsRowsSumToOne(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 8, Points: 6000, Clusters: 3, NoiseFrac: 0.15,
		MinClusterDim: 4, MaxClusterDim: 6, Seed: 42,
	})
	res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	soft, err := core.SoftMemberships(ds, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(soft) != ds.Len() {
		t.Fatalf("got %d rows for %d points", len(soft), ds.Len())
	}
	k := len(res.Clusters)
	for i, row := range soft {
		if len(row) != k+1 {
			t.Fatalf("row %d has %d columns, want %d", i, len(row), k+1)
		}
		sum := 0.0
		for _, v := range row {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("row %d has invalid probability %g", i, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
}

func TestSoftMembershipsAgreeWithHardLabels(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 8, Points: 6000, Clusters: 3, NoiseFrac: 0.15,
		MinClusterDim: 4, MaxClusterDim: 6, Seed: 42,
	})
	res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	soft, err := core.SoftMemberships(ds, res)
	if err != nil {
		t.Fatal(err)
	}
	k := len(res.Clusters)
	agree, clustered := 0, 0
	for i, lb := range res.Labels {
		if lb == core.Noise {
			continue
		}
		clustered++
		best, bestP := -1, -1.0
		for c := 0; c <= k; c++ {
			if soft[i][c] > bestP {
				best, bestP = c, soft[i][c]
			}
		}
		if best == lb {
			agree++
		}
	}
	if clustered == 0 {
		t.Fatal("no clustered points")
	}
	if frac := float64(agree) / float64(clustered); frac < 0.9 {
		t.Errorf("soft argmax agrees with hard labels on only %.1f%% of clustered points", frac*100)
	}
}

func TestSoftMembershipsValidation(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 5, Points: 500, Clusters: 1, MinClusterDim: 3, MaxClusterDim: 4, Seed: 1,
	})
	res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	other, _ := genSmall(t, synthetic.Config{
		Dims: 5, Points: 300, Clusters: 1, MinClusterDim: 3, MaxClusterDim: 4, Seed: 2,
	})
	if _, err := core.SoftMemberships(other, res); err == nil {
		t.Error("mismatched dataset accepted")
	}
}
