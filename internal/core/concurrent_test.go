package core_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/synthetic"
	"mrcc/internal/treeio"
)

// TestConcurrentRunsWriteNothing pins that a run writes nothing it
// reads, so runs over one set of trees may run side by side: eight
// goroutines run core.Run at once over one kept tree and over a
// window's two trees, half of them labeling the dataset the trees
// counted and half not. Every Result must be the serial run's, and
// every tree must save the same bytes before and after. Each run is on
// one worker, so the eight interleave scan by scan; under -race a write
// to a shared tree or level index is a reported race.
func TestConcurrentRunsWriteNothing(t *testing.T) {
	ds, _ := genSmall(t, synthetic.Config{
		Dims: 10, Points: 40000, Clusters: 6, NoiseFrac: 0.1,
		MinClusterDim: 5, MaxClusterDim: 8, Seed: 3,
	})
	cfg := core.Config{Workers: 1}
	kept, err := core.Run(context.Background(), core.Input{Dataset: ds}, core.Config{Workers: 1, KeepTree: true})
	if err != nil {
		t.Fatal(err)
	}
	aging, active := core.WindowTrees(t, ds.Points, ds.Dims, core.DefaultH, 1000)
	for _, c := range []struct {
		name  string
		trees []*ctree.Tree
	}{
		{"kept", []*ctree.Tree{kept.Tree}},
		{"window", []*ctree.Tree{aging, active}},
	} {
		trees := c.trees
		t.Run(c.name, func(t *testing.T) {
			before := saveAll(t, trees)
			inputs := []core.Input{{Dataset: ds, Trees: trees}, {Trees: trees}}
			serial := make([]*core.Result, len(inputs))
			for i, in := range inputs {
				res, err := core.Run(context.Background(), in, cfg)
				if err != nil {
					t.Fatal(err)
				}
				serial[i] = res
			}
			if len(serial[0].Betas) < 5 {
				t.Fatalf("only %d β-clusters; too few scan passes for the runs to overlap", len(serial[0].Betas))
			}
			const goroutines = 8
			results := make([]*core.Result, goroutines)
			errs := make([]error, goroutines)
			var wg sync.WaitGroup
			for g := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[g], errs[g] = core.Run(context.Background(), inputs[g%len(inputs)], cfg)
				}()
			}
			wg.Wait()
			for g, res := range results {
				if errs[g] != nil {
					t.Fatalf("goroutine %d: %v", g, errs[g])
				}
				assertResultsIdentical(t, serial[g%len(inputs)], res)
			}
			for i, after := range saveAll(t, trees) {
				if !bytes.Equal(before[i], after) {
					t.Fatalf("tree %d saves different bytes after the runs", i)
				}
			}
		})
	}
}

// saveAll returns each tree's snapshot bytes.
func saveAll(t *testing.T, trees []*ctree.Tree) [][]byte {
	t.Helper()
	out := make([][]byte, len(trees))
	for i, tr := range trees {
		var buf bytes.Buffer
		if _, err := treeio.Save(&buf, tr, treeio.Meta{}); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}
