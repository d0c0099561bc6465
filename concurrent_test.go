package mrcc_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"mrcc"
	"mrcc/internal/synthetic"
)

// TestConcurrentRunsOverOneTree pins the facade's concurrency contract:
// runs over one Tree may run at the same time, because a run writes
// nothing it reads. Eight goroutines call Run with one Tree and its
// dataset, once over a KeepTree result and once over a LoadTree of that
// tree's SaveTree file. Every Result must equal the serial run's, and
// the Tree must save the same bytes before and after.
func TestConcurrentRunsOverOneTree(t *testing.T) {
	ds, _, err := synthetic.Generate(synthetic.Config{
		Dims: 10, Points: 40000, Clusters: 6, NoiseFrac: 0.1,
		MinClusterDim: 5, MaxClusterDim: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mrcc.Config{Workers: 1}
	kept, err := mrcc.Run(context.Background(), mrcc.Input{Dataset: ds}, mrcc.Config{Workers: 1, KeepTree: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "kept.snap")
	if _, err := mrcc.SaveTree(path, kept.Tree); err != nil {
		t.Fatal(err)
	}
	loaded, err := mrcc.LoadTree(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		tree *mrcc.Tree
	}{{"kept", kept.Tree}, {"loaded", loaded}} {
		t.Run(c.name, func(t *testing.T) {
			before := savedBytes(t, c.tree)
			in := mrcc.Input{Dataset: ds, Tree: c.tree}
			serial, err := mrcc.Run(context.Background(), in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(serial.Betas) < 5 {
				t.Fatalf("only %d β-clusters; too few scan passes for the runs to overlap", len(serial.Betas))
			}
			const goroutines = 8
			results := make([]*mrcc.Result, goroutines)
			errs := make([]error, goroutines)
			var wg sync.WaitGroup
			for g := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[g], errs[g] = mrcc.Run(context.Background(), in, cfg)
				}()
			}
			wg.Wait()
			for g, res := range results {
				if errs[g] != nil {
					t.Fatalf("goroutine %d: %v", g, errs[g])
				}
				if diff := diffResults(serial, res); diff != "" {
					t.Fatalf("goroutine %d: %s", g, diff)
				}
			}
			if !bytes.Equal(before, savedBytes(t, c.tree)) {
				t.Fatal("the tree saves different bytes after the runs")
			}
		})
	}
}

// diffResults describes the first difference between got's answers and
// want's, or returns "" when they are the same.
func diffResults(want, got *mrcc.Result) string {
	if len(got.Betas) != len(want.Betas) {
		return fmt.Sprintf("%d β-clusters, the serial run %d", len(got.Betas), len(want.Betas))
	}
	for i, b := range got.Betas {
		if w := want.Betas[i]; !reflect.DeepEqual(b, w) {
			return fmt.Sprintf("β-cluster %d at level %d path %v, the serial run's at level %d path %v",
				i, b.Level, b.Center, w.Level, w.Center)
		}
	}
	switch {
	case !reflect.DeepEqual(got.Clusters, want.Clusters):
		return "the correlation clusters differ from the serial run's"
	case !reflect.DeepEqual(got.Labels, want.Labels):
		return "the labels differ from the serial run's"
	case got.TreeMemoryBytes != want.TreeMemoryBytes:
		return fmt.Sprintf("TreeMemoryBytes %d, the serial run %d", got.TreeMemoryBytes, want.TreeMemoryBytes)
	}
	return ""
}

// savedBytes returns the bytes SaveTree writes for tree.
func savedBytes(t *testing.T, tree *mrcc.Tree) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tree.snap")
	if _, err := mrcc.SaveTree(path, tree); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
