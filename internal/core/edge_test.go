package core_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"mrcc/internal/core"
	"mrcc/internal/dataset"
	"mrcc/internal/synthetic"
)

func TestRunSinglePoint(t *testing.T) {
	ds, err := dataset.FromRows([][]float64{{0.5, 0.5, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// One point cannot reject the null hypothesis at any sane alpha.
	if res.NumClusters() != 0 {
		t.Errorf("single point produced %d clusters", res.NumClusters())
	}
	if res.Labels[0] != core.Noise {
		t.Errorf("single point labeled %d, want noise", res.Labels[0])
	}
}

func TestRunAllPointsIdentical(t *testing.T) {
	rows := make([][]float64, 500)
	for i := range rows {
		rows[i] = []float64{0.3, 0.7, 0.1, 0.9}
	}
	ds, err := dataset.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A degenerate spike is the densest region imaginable: exactly one
	// cluster, holding every point.
	if res.NumClusters() != 1 {
		t.Fatalf("identical points produced %d clusters, want 1", res.NumClusters())
	}
	for i, l := range res.Labels {
		if l != 0 {
			t.Fatalf("point %d labeled %d, want 0", i, l)
		}
	}
}

func TestRunPureUniformNoiseFindsNothingStrong(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows := make([][]float64, 5000)
	for i := range rows {
		p := make([]float64, 6)
		for j := range p {
			p[j] = rng.Float64()
		}
		rows[i] = p
	}
	ds, err := dataset.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	clustered := 0
	for _, l := range res.Labels {
		if l != core.Noise {
			clustered++
		}
	}
	// At alpha=1e-10 uniform noise must stay (almost entirely) noise.
	if frac := float64(clustered) / float64(len(rows)); frac > 0.1 {
		t.Errorf("%.1f%% of uniform noise was clustered", frac*100)
	}
}

func TestRunTwoDimensions(t *testing.T) {
	// The method must work at the lowest dimensionality the Counting-
	// tree supports, even below the paper's 5-axis guidance.
	rng := rand.New(rand.NewSource(8))
	var rows [][]float64
	for i := 0; i < 1000; i++ {
		rows = append(rows, []float64{0.2 + 0.02*rng.NormFloat64(), 0.7 + 0.02*rng.NormFloat64()})
	}
	for i := 0; i < 200; i++ {
		rows = append(rows, []float64{rng.Float64(), rng.Float64()})
	}
	ds, err := dataset.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 1 {
		t.Fatalf("found %d clusters, want 1", res.NumClusters())
	}
}

func TestBetaClusterInvariants(t *testing.T) {
	// Properties over random workloads: every β-box sits inside the
	// unit cube, has at least one relevant axis, irrelevant axes span
	// [0,1], and every labeled point lies inside one of its cluster's
	// β-boxes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := synthetic.Config{
			Dims:          4 + rng.Intn(8),
			Points:        2000 + rng.Intn(3000),
			Clusters:      1 + rng.Intn(4),
			NoiseFrac:     0.3 * rng.Float64(),
			MinClusterDim: 3,
			MaxClusterDim: 8,
			Seed:          seed,
		}
		ds, _, err := synthetic.Generate(cfg)
		if err != nil {
			return false
		}
		res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
		if err != nil {
			return false
		}
		for _, b := range res.Betas {
			hasRelevant := false
			for j := range b.Relevant {
				if b.L[j] < 0 || b.U[j] > 1 || b.L[j] > b.U[j] {
					return false
				}
				if b.Relevant[j] {
					hasRelevant = true
				} else if b.L[j] != 0 || b.U[j] != 1 {
					return false
				}
			}
			if !hasRelevant {
				return false
			}
		}
		for i, lb := range res.Labels {
			if lb == core.Noise {
				continue
			}
			inSome := false
			for _, bi := range res.Clusters[lb].Betas {
				b := &res.Betas[bi]
				inside := true
				for j, v := range ds.Points[i] {
					if v < b.L[j] || v > b.U[j] {
						inside = false
						break
					}
				}
				if inside {
					inSome = true
					break
				}
			}
			if !inSome {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestClustersNeverShareBetas(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 10, Points: 10000, Clusters: 4, NoiseFrac: 0.15,
		MinClusterDim: 6, MaxClusterDim: 9, Seed: 21,
	})
	res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	owner := make(map[int]int)
	for _, c := range res.Clusters {
		for _, bi := range c.Betas {
			if prev, dup := owner[bi]; dup {
				t.Fatalf("β-cluster %d owned by clusters %d and %d", bi, prev, c.ID)
			}
			owner[bi] = c.ID
		}
	}
	if len(owner) != len(res.Betas) {
		t.Fatalf("%d β-clusters assigned, have %d", len(owner), len(res.Betas))
	}
}

func TestRunRespectsHigherH(t *testing.T) {
	ds, gt := genSmall(t, synthetic.Config{
		Dims: 6, Points: 5000, Clusters: 2, NoiseFrac: 0.1,
		MinClusterDim: 4, MaxClusterDim: 5, Seed: 31,
	})
	for _, h := range []int{4, 6, 8} {
		res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{H: h})
		if err != nil {
			t.Fatalf("H=%d: %v", h, err)
		}
		rep := quality(t, res, gt)
		t.Logf("H=%d quality=%.3f clusters=%d", h, rep.Quality, res.NumClusters())
		if rep.Quality < 0.8 {
			t.Errorf("H=%d: quality %.3f", h, rep.Quality)
		}
	}
}
