package mrcc_test

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"mrcc"
)

// twoClusterRows builds two tight Gaussian clusters in overlapping
// subspaces plus background noise, at an arbitrary (non-normalized)
// scale to exercise the facade's normalization path.
func twoClusterRows(scale float64, n int) [][]float64 {
	rng := rand.New(rand.NewSource(11))
	var rows [][]float64
	for i := 0; i < n; i++ {
		rows = append(rows, []float64{
			scale * (0.2 + 0.02*rng.NormFloat64()),
			scale * (0.3 + 0.02*rng.NormFloat64()),
			scale * (0.2 + 0.02*rng.NormFloat64()),
			scale * rng.Float64(),
			scale * rng.Float64(),
		})
	}
	for i := 0; i < n; i++ {
		rows = append(rows, []float64{
			scale * rng.Float64(),
			scale * (0.8 + 0.02*rng.NormFloat64()),
			scale * (0.8 + 0.02*rng.NormFloat64()),
			scale * (0.5 + 0.02*rng.NormFloat64()),
			scale * rng.Float64(),
		})
	}
	for i := 0; i < n/5; i++ {
		rows = append(rows, []float64{
			scale * rng.Float64(), scale * rng.Float64(), scale * rng.Float64(),
			scale * rng.Float64(), scale * rng.Float64(),
		})
	}
	return rows
}

// runRows clusters raw rows the way a facade caller holding rows does:
// DatasetFromRows, then Run under a background context.
func runRows(rows [][]float64, cfg mrcc.Config) (*mrcc.Result, error) {
	ds, err := mrcc.DatasetFromRows(rows)
	if err != nil {
		return nil, err
	}
	return mrcc.Run(context.Background(), mrcc.Input{Dataset: ds}, cfg)
}

func TestRunNormalizesArbitraryScales(t *testing.T) {
	rows := twoClusterRows(500, 1200)
	res, err := runRows(rows, mrcc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 2 {
		t.Fatalf("found %d clusters, want 2", res.NumClusters())
	}
	// The input must be left untouched (Run normalizes a copy).
	if rows[0][0] < 1 {
		t.Error("Run mutated the caller's data")
	}
}

func TestRunRejectsBadData(t *testing.T) {
	if _, err := runRows(nil, mrcc.Config{}); err == nil {
		t.Error("nil rows accepted")
	}
	if _, err := runRows([][]float64{{1, math.NaN()}}, mrcc.Config{}); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := runRows([][]float64{{1, 2}, {3}}, mrcc.Config{}); err == nil {
		t.Error("ragged rows accepted")
	}
}

func TestRunDatasetSkipsCopyWhenNormalized(t *testing.T) {
	rows := twoClusterRows(1, 800) // already inside [0,1)
	ds, err := mrcc.DatasetFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mrcc.Run(context.Background(), mrcc.Input{Dataset: ds}, mrcc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() == 0 {
		t.Fatal("no clusters found")
	}
	if len(res.Labels) != ds.Len() {
		t.Fatalf("labels %d != points %d", len(res.Labels), ds.Len())
	}
}

// TestRunHonorsWorkers is the facade-level regression for the bug where
// mrcc.Run/RunDataset ignored worker configuration and always built the
// Counting-tree serially: Workers must reach the core pipeline, and any
// worker count must reproduce the serial result exactly — clusters,
// relevant axes, and every point label.
func TestRunHonorsWorkers(t *testing.T) {
	rows := twoClusterRows(500, 1500)
	serial, err := runRows(rows, mrcc.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.NumClusters() != 2 {
		t.Fatalf("serial run found %d clusters, want 2", serial.NumClusters())
	}
	for _, w := range []int{0, 2, 4, 8} {
		par, err := runRows(rows, mrcc.Config{Workers: w})
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		if par.NumClusters() != serial.NumClusters() || len(par.Betas) != len(serial.Betas) {
			t.Fatalf("Workers=%d: structure differs (%d clusters, %d betas) vs serial (%d, %d)",
				w, par.NumClusters(), len(par.Betas), serial.NumClusters(), len(serial.Betas))
		}
		for i := range serial.Betas {
			if serial.Betas[i].Center.Compare(par.Betas[i].Center) != 0 {
				t.Fatalf("Workers=%d: β-cluster %d center differs", w, i)
			}
		}
		for i := range serial.Labels {
			if serial.Labels[i] != par.Labels[i] {
				t.Fatalf("Workers=%d: label %d differs: %d vs %d",
					w, i, serial.Labels[i], par.Labels[i])
			}
		}
	}
	if _, err := runRows(rows, mrcc.Config{Workers: -1}); err == nil {
		t.Error("negative Workers accepted")
	}
}

func TestLoadCSVAndCluster(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "points.csv")
	ds, err := mrcc.DatasetFromRows(twoClusterRows(10, 600))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveCSVFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := mrcc.LoadCSV(path, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mrcc.Run(context.Background(), mrcc.Input{Dataset: back}, mrcc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() != 2 {
		t.Errorf("found %d clusters from CSV round trip, want 2", res.NumClusters())
	}
}

func TestNewDatasetAppend(t *testing.T) {
	ds := mrcc.NewDataset(3, 4)
	ds.Append([]float64{0.1, 0.2, 0.3})
	if ds.Len() != 1 || ds.Dims != 3 {
		t.Errorf("shape d=%d n=%d", ds.Dims, ds.Len())
	}
}

// TestRunStats pins the facade side of the observability layer: a
// raw-scale run with CollectStats must report a measured normalization
// phase plus the pipeline phases, and stats must not change the
// clustering.
func TestRunStats(t *testing.T) {
	rows := twoClusterRows(500, 1200)
	plain, err := runRows(rows, mrcc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runRows(rows, mrcc.Config{CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st == nil {
		t.Fatal("CollectStats set but Result.Stats is nil")
	}
	if st.Normalize.Spans != 1 || st.Normalize.WallNS <= 0 {
		t.Errorf("normalize phase not measured: %+v", st.Normalize)
	}
	if st.TreeBuild.WallNS <= 0 || st.BetaSearch.WallNS <= 0 {
		t.Error("pipeline phase wall times missing")
	}
	if st.Counters.LabeledPoints+st.Counters.NoisePoints != int64(len(rows)) {
		t.Errorf("labeled+noise = %d, want %d",
			st.Counters.LabeledPoints+st.Counters.NoisePoints, len(rows))
	}
	if !reflect.DeepEqual(plain.Labels, res.Labels) {
		t.Error("stats collection changed the labels")
	}
}
