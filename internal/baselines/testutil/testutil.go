// Package testutil provides the shared fixture for baseline tests: an
// easy, well-separated synthetic workload and quality scoring against
// its ground truth.
package testutil

import (
	"testing"

	"mrcc/internal/baselines"
	"mrcc/internal/dataset"
	"mrcc/internal/eval"
	"mrcc/internal/synthetic"
)

// EasyWorkload generates a small, well-separated subspace-cluster
// dataset every baseline should handle.
func EasyWorkload(t testing.TB) (*dataset.Dataset, *synthetic.GroundTruth) {
	t.Helper()
	ds, gt, err := synthetic.Generate(synthetic.Config{
		Dims: 8, Points: 3000, Clusters: 3, NoiseFrac: 0.1,
		MinClusterDim: 5, MaxClusterDim: 7, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, gt
}

// Score computes the paper's Quality of a baseline result against the
// ground truth.
func Score(t testing.TB, res *baselines.Result, gt *synthetic.GroundTruth) eval.Report {
	t.Helper()
	rep, err := eval.Compare(
		&eval.Clustering{Labels: res.Labels, Relevant: res.Relevant},
		&eval.Clustering{Labels: gt.Labels, Relevant: gt.Relevant},
	)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// NumClusters returns the number of clusters a baseline result labels
// points into: one more than its largest cluster label.
func NumClusters(res *baselines.Result) int {
	n := 0
	for _, l := range res.Labels {
		if l != baselines.Noise && l+1 > n {
			n = l + 1
		}
	}
	return n
}
