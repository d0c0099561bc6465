package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/eval"
	"mrcc/internal/synthetic"
)

func genSmall(t testing.TB, cfg synthetic.Config) (*dataset.Dataset, *synthetic.GroundTruth) {
	t.Helper()
	ds, gt, err := synthetic.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return ds, gt
}

func quality(t testing.TB, res *core.Result, gt *synthetic.GroundTruth) eval.Report {
	t.Helper()
	found := &eval.Clustering{Labels: res.Labels, Relevant: make([][]bool, len(res.Clusters))}
	for i, c := range res.Clusters {
		found.Relevant[i] = c.Relevant
	}
	rep, err := eval.Compare(found, &eval.Clustering{Labels: gt.Labels, Relevant: gt.Relevant})
	if err != nil {
		t.Fatalf("compare: %v", err)
	}
	return rep
}

func TestRunRecoversSubspaceClusters(t *testing.T) {
	ds, gt := genSmall(t, synthetic.Config{
		Dims: 8, Points: 8000, Clusters: 3, NoiseFrac: 0.15,
		MinClusterDim: 4, MaxClusterDim: 6, Seed: 42,
	})
	res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rep := quality(t, res, gt)
	t.Logf("clusters=%d betas=%d quality=%.3f subspaces=%.3f precision=%.3f recall=%.3f",
		res.NumClusters(), len(res.Betas), rep.Quality, rep.SubspacesQuality, rep.AvgPrecision, rep.AvgRecall)
	if res.NumClusters() == 0 {
		t.Fatal("found no clusters")
	}
	if rep.Quality < 0.80 {
		t.Errorf("Quality = %.3f, want >= 0.80", rep.Quality)
	}
	if rep.SubspacesQuality < 0.70 {
		t.Errorf("Subspaces Quality = %.3f, want >= 0.70", rep.SubspacesQuality)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 6, Points: 3000, Clusters: 2, NoiseFrac: 0.1,
		MinClusterDim: 3, MaxClusterDim: 5, Seed: 7,
	})
	r1, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	r2, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if len(r1.Betas) != len(r2.Betas) || r1.NumClusters() != r2.NumClusters() {
		t.Fatalf("non-deterministic structure: (%d betas, %d clusters) vs (%d, %d)",
			len(r1.Betas), r1.NumClusters(), len(r2.Betas), r2.NumClusters())
	}
	for i := range r1.Labels {
		if r1.Labels[i] != r2.Labels[i] {
			t.Fatalf("label %d differs between runs: %d vs %d", i, r1.Labels[i], r2.Labels[i])
		}
	}
}

func TestRunLabelsPartitionPoints(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 6, Points: 4000, Clusters: 3, NoiseFrac: 0.2,
		MinClusterDim: 3, MaxClusterDim: 5, Seed: 11,
	})
	res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Labels) != ds.Len() {
		t.Fatalf("got %d labels for %d points", len(res.Labels), ds.Len())
	}
	sizes := make([]int, res.NumClusters())
	for i, lb := range res.Labels {
		if lb == core.Noise {
			continue
		}
		if lb < 0 || lb >= res.NumClusters() {
			t.Fatalf("point %d has out-of-range label %d", i, lb)
		}
		sizes[lb]++
	}
	for k, c := range res.Clusters {
		if c.Size != sizes[k] {
			t.Errorf("cluster %d reports size %d, labeled points say %d", k, c.Size, sizes[k])
		}
		if len(c.RelevantAxes()) == 0 {
			t.Errorf("cluster %d has no relevant axes", k)
		}
	}
}

func TestRunRobustToNoiseLevels(t *testing.T) {
	for _, noise := range []float64{0.05, 0.25} {
		ds, gt := genSmall(t, synthetic.Config{
			Dims: 8, Points: 8000, Clusters: 3, NoiseFrac: noise,
			MinClusterDim: 4, MaxClusterDim: 6, Seed: 99,
		})
		res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
		if err != nil {
			t.Fatalf("run (noise %.2f): %v", noise, err)
		}
		rep := quality(t, res, gt)
		t.Logf("noise=%.2f quality=%.3f clusters=%d", noise, rep.Quality, res.NumClusters())
		if rep.Quality < 0.70 {
			t.Errorf("noise %.2f: Quality = %.3f, want >= 0.70", noise, rep.Quality)
		}
	}
}

func TestRunRobustToRotation(t *testing.T) {
	// Four Givens rotations mix at most eight axes, so in twelve
	// dimensions pairs of clusters keep untouched separating axes —
	// the regime in which the paper reports at most a 5 % Quality drop.
	ds, gt := genSmall(t, synthetic.Config{
		Dims: 12, Points: 12000, Clusters: 3, NoiseFrac: 0.15,
		MinClusterDim: 7, MaxClusterDim: 10, Seed: 42, Rotations: 4,
	})
	res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rep := quality(t, res, gt)
	t.Logf("rotated quality=%.3f clusters=%d", rep.Quality, res.NumClusters())
	if rep.Quality < 0.70 {
		t.Errorf("rotated Quality = %.3f, want >= 0.70", rep.Quality)
	}
}

func TestConfigValidation(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 5, Points: 500, Clusters: 1, MinClusterDim: 3, MaxClusterDim: 4, Seed: 1,
	})
	cases := []core.Config{
		{Alpha: 1.5},
		{Alpha: -0.1},
		{H: 2},
		{MaxBetaClusters: -1},
	}
	for _, cfg := range cases {
		if _, err := core.Run(context.Background(), core.Input{Dataset: ds}, cfg); err == nil {
			t.Errorf("config %+v: expected error, got none", cfg)
		}
	}
}

func TestRunOnTreeMismatchRejected(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 5, Points: 500, Clusters: 1, MinClusterDim: 3, MaxClusterDim: 4, Seed: 1,
	})
	tree, err := ctree.Build(ds, 4, ctree.BuildOptions{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	other, _ := genSmall(t, synthetic.Config{
		Dims: 6, Points: 400, Clusters: 1, MinClusterDim: 3, MaxClusterDim: 4, Seed: 2,
	})
	if _, err := core.Run(context.Background(), core.Input{Dataset: other, Trees: []*ctree.Tree{tree}}, core.Config{}); err == nil {
		t.Fatal("expected mismatch error, got none")
	}
}

// TestRunRefusesNilTree pins that a nil input tree is bad input, not
// an aborted run: Run refuses it before reading any tree, with an
// error that names its index.
func TestRunRefusesNilTree(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 5, Points: 500, Clusters: 1, MinClusterDim: 3, MaxClusterDim: 4, Seed: 1,
	})
	tree, err := ctree.Build(ds, 4, ctree.BuildOptions{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	for _, c := range []struct {
		trees []*ctree.Tree
		want  string
	}{
		{[]*ctree.Tree{nil}, "tree 0 to cluster is nil"},
		{[]*ctree.Tree{tree, nil}, "tree 1 to cluster is nil"},
	} {
		res, err := core.Run(context.Background(), core.Input{Trees: c.trees}, core.Config{})
		var pe *core.PipelineError
		if res != nil || err == nil || errors.As(err, &pe) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%d trees: got (%v, %v), want an error naming %q", len(c.trees), res, err, c.want)
		}
	}
}

// TestRunStatsRecordsTreesH pins that Stats.H is the resolution count
// of the trees the run searched, not Config.H, which a run over given
// trees does not use.
func TestRunStatsRecordsTreesH(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 5, Points: 500, Clusters: 1, MinClusterDim: 3, MaxClusterDim: 4, Seed: 1,
	})
	tree, err := ctree.Build(ds, 4, ctree.BuildOptions{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res, err := core.Run(context.Background(), core.Input{Trees: []*ctree.Tree{tree}}, core.Config{H: 6, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.H != 4 || len(st.Counters.CellsPerLevel) != 4 {
		t.Errorf("Stats.H = %d with cells on levels %v, want H = 4 and levels 1–3", st.H, st.Counters.CellsPerLevel)
	}
}

func TestMaxBetaClustersCap(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 8, Points: 8000, Clusters: 5, NoiseFrac: 0.1,
		MinClusterDim: 4, MaxClusterDim: 6, Seed: 5,
	})
	res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{MaxBetaClusters: 2})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Betas) > 2 {
		t.Fatalf("cap ignored: %d β-clusters", len(res.Betas))
	}
}
