package baselines_test

import (
	"testing"

	"mrcc/internal/baselines"
	"mrcc/internal/baselines/testutil"
)

// TestResultNumClusters pins the cluster count the baselines' suites
// read from a result's labels (testutil.NumClusters).
func TestResultNumClusters(t *testing.T) {
	r := &baselines.Result{Labels: []int{baselines.Noise, 0, 3, 1}}
	if got := testutil.NumClusters(r); got != 4 {
		t.Errorf("NumClusters = %d, want 4", got)
	}
	empty := &baselines.Result{Labels: []int{baselines.Noise, baselines.Noise}}
	if got := testutil.NumClusters(empty); got != 0 {
		t.Errorf("NumClusters = %d, want 0", got)
	}
}
