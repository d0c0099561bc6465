package mrcc_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mrcc"
)

// unnormalizedRows returns rows at an arbitrary scale so the facade
// must take the clone+normalize path.
func unnormalizedRows() [][]float64 {
	rows := make([][]float64, 400)
	for i := range rows {
		rows[i] = []float64{float64(i), float64(i%7) * 10, 100 - float64(i)/2}
	}
	return rows
}

// TestRunDatasetContextPreCancelled proves a cancelled context aborts
// before normalization touches any memory: the error is a typed
// *PipelineError naming the normalize phase, and the caller's dataset
// is bit-identical afterwards.
func TestRunDatasetContextPreCancelled(t *testing.T) {
	ds, err := mrcc.DatasetFromRows(unnormalizedRows())
	if err != nil {
		t.Fatal(err)
	}
	snapshot := ds.Clone()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := mrcc.Run(ctx, mrcc.Input{Dataset: ds}, mrcc.Config{})
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
	var pe *mrcc.PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PipelineError, got %T: %v", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cause is not context.Canceled: %v", err)
	}
	if pe.Phase != "normalize" {
		t.Fatalf("phase %q, want normalize", pe.Phase)
	}
	if !reflect.DeepEqual(ds.Points, snapshot.Points) {
		t.Fatal("aborted run mutated the caller's dataset")
	}
}

// TestFacadeErrorTypesSurvive proves the re-exported error aliases
// interoperate with the core types through errors.As at the facade
// boundary: a memory-limited run yields a *mrcc.ResourceError.
func TestFacadeErrorTypesSurvive(t *testing.T) {
	rows := unnormalizedRows()
	_, err := runRows(rows, mrcc.Config{MemoryLimitBytes: 1024})
	var re *mrcc.ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("want *mrcc.ResourceError, got %T: %v", err, err)
	}
	if re.LimitBytes != 1024 {
		t.Fatalf("malformed ResourceError: %+v", re)
	}
}
