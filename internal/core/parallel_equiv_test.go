package core_test

import (
	"context"
	"reflect"
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/synthetic"
)

// assertResultsIdentical compares every clustering-relevant field of two
// results byte-for-byte: β-clusters (bounds, relevances, levels,
// centers), correlation clusters (membership, subspaces, sizes), and
// per-point labels. Timings and the tree-memory estimate are excluded —
// a merged-shard tree legitimately differs in allocation layout.
func assertResultsIdentical(t *testing.T, serial, parallel *core.Result) {
	t.Helper()
	if len(serial.Betas) != len(parallel.Betas) {
		t.Fatalf("β-cluster counts differ: serial %d, parallel %d",
			len(serial.Betas), len(parallel.Betas))
	}
	for i := range serial.Betas {
		a, b := &serial.Betas[i], &parallel.Betas[i]
		if a.Level != b.Level || a.Center.Compare(b.Center) != 0 {
			t.Fatalf("β-cluster %d center differs: level %d path %v vs level %d path %v",
				i, a.Level, a.Center, b.Level, b.Center)
		}
		if !reflect.DeepEqual(a.L, b.L) || !reflect.DeepEqual(a.U, b.U) {
			t.Fatalf("β-cluster %d bounds differ:\n  serial   L=%v U=%v\n  parallel L=%v U=%v",
				i, a.L, a.U, b.L, b.U)
		}
		if !reflect.DeepEqual(a.Relevant, b.Relevant) {
			t.Fatalf("β-cluster %d relevant axes differ: %v vs %v", i, a.Relevant, b.Relevant)
		}
		if !reflect.DeepEqual(a.Relevances, b.Relevances) {
			t.Fatalf("β-cluster %d relevances differ: %v vs %v", i, a.Relevances, b.Relevances)
		}
	}
	if !reflect.DeepEqual(serial.Clusters, parallel.Clusters) {
		t.Fatalf("clusters differ:\n  serial   %+v\n  parallel %+v",
			serial.Clusters, parallel.Clusters)
	}
	if !reflect.DeepEqual(serial.Labels, parallel.Labels) {
		for i := range serial.Labels {
			if serial.Labels[i] != parallel.Labels[i] {
				t.Fatalf("label %d differs: serial %d, parallel %d",
					i, serial.Labels[i], parallel.Labels[i])
			}
		}
	}
}

// TestParallelEquivalence is the serial-vs-parallel harness promised by
// DESIGN.md §5: for every table entry the full pipeline — sharded tree
// build, chunked convolution scan, parallel labeling — must produce a
// Result identical to the serial run, across dimensionalities 5–18,
// worker counts 2/4/8, both masks, and with and without rotation. It
// extends TestParallelTreeSameClustering, which only varies the tree
// build.
func TestParallelEquivalence(t *testing.T) {
	cases := []struct {
		name     string
		gen      synthetic.Config
		cfg      core.Config
		workers  int
		longOnly bool // skipped with -short to keep the race job quick
	}{
		{
			name: "d5_face_w2",
			gen: synthetic.Config{Dims: 5, Points: 4000, Clusters: 2, NoiseFrac: 0.1,
				MinClusterDim: 3, MaxClusterDim: 5, Seed: 21},
			workers: 2,
		},
		{
			name: "d5_full_w4",
			gen: synthetic.Config{Dims: 5, Points: 4000, Clusters: 2, NoiseFrac: 0.1,
				MinClusterDim: 3, MaxClusterDim: 5, Seed: 22},
			cfg:     core.WithFullMask(core.Config{}),
			workers: 4,
		},
		{
			name: "d6_full_w2",
			gen: synthetic.Config{Dims: 6, Points: 5000, Clusters: 3, NoiseFrac: 0.15,
				MinClusterDim: 3, MaxClusterDim: 5, Seed: 23},
			cfg:     core.WithFullMask(core.Config{}),
			workers: 2,
		},
		{
			name: "d8_face_w4",
			gen: synthetic.Config{Dims: 8, Points: 8000, Clusters: 3, NoiseFrac: 0.15,
				MinClusterDim: 5, MaxClusterDim: 7, Seed: 61},
			workers: 4,
		},
		{
			name: "d8_face_w8",
			gen: synthetic.Config{Dims: 8, Points: 8000, Clusters: 3, NoiseFrac: 0.15,
				MinClusterDim: 5, MaxClusterDim: 7, Seed: 61},
			workers: 8,
		},
		{
			name: "d12_rotated_face_w4",
			gen: synthetic.Config{Dims: 12, Points: 10000, Clusters: 3, NoiseFrac: 0.15,
				MinClusterDim: 7, MaxClusterDim: 10, Seed: 42, Rotations: 4},
			workers:  4,
			longOnly: true,
		},
		{
			name: "d18_face_w4",
			gen: synthetic.Config{Dims: 18, Points: 14000, Clusters: 2, NoiseFrac: 0.1,
				MinClusterDim: 12, MaxClusterDim: 16, Seed: 77},
			workers:  4,
			longOnly: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.longOnly && testing.Short() {
				t.Skip("skipping large equivalence entry in -short mode")
			}
			ds, _ := genSmall(t, tc.gen)
			serialCfg := tc.cfg
			serialCfg.Workers = 1
			parallelCfg := tc.cfg
			parallelCfg.Workers = tc.workers
			serial, err := core.Run(context.Background(), core.Input{Dataset: ds}, serialCfg)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			parallel, err := core.Run(context.Background(), core.Input{Dataset: ds}, parallelCfg)
			if err != nil {
				t.Fatalf("parallel run (workers=%d): %v", tc.workers, err)
			}
			assertResultsIdentical(t, serial, parallel)
			if len(serial.Betas) == 0 {
				t.Fatal("degenerate table entry: no β-clusters found, equivalence is vacuous")
			}
		})
	}
}

// TestParallelEquivalenceOnSharedTree pins the scan-level parallelism in
// isolation: the same pre-built tree, searched with 1 and 4 workers,
// must yield identical results (a run over a given tree is the path
// the sensitivity experiments rely on).
func TestParallelEquivalenceOnSharedTree(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 10, Points: 8000, Clusters: 3, NoiseFrac: 0.15,
		MinClusterDim: 5, MaxClusterDim: 8, Seed: 33,
	})
	run := func(workers int) *core.Result {
		t.Helper()
		res, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	serial := run(1)
	for _, w := range []int{2, 4, 8} {
		assertResultsIdentical(t, serial, run(w))
	}
}
