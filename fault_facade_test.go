//go:build fault

package mrcc_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mrcc"
	"mrcc/internal/fault"
)

// TestFacadeNormalizeFaultPoint proves the facade's pre-normalization
// checkpoint is a real injection point: arming fault.Normalize aborts
// the run with a *PipelineError naming the normalize phase and leaves
// the caller's dataset untouched.
func TestFacadeNormalizeFaultPoint(t *testing.T) {
	t.Cleanup(fault.Reset)
	rows := make([][]float64, 300)
	for i := range rows {
		rows[i] = []float64{float64(i), float64(i % 13), float64(3 * i)}
	}
	ds, err := mrcc.DatasetFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := ds.Clone()
	boom := errors.New("injected before normalize")
	fault.Set(fault.Normalize, func() error { return boom })
	res, err := mrcc.Run(context.Background(), mrcc.Input{Dataset: ds}, mrcc.Config{})
	if res != nil {
		t.Fatal("faulted run returned a result")
	}
	var pe *mrcc.PipelineError
	if !errors.As(err, &pe) || pe.Phase != "normalize" {
		t.Fatalf("want *PipelineError{normalize}, got %v", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("armed cause not reachable: %v", err)
	}
	if !reflect.DeepEqual(ds.Points, snapshot.Points) {
		t.Fatal("aborted run mutated the caller's dataset")
	}
	// Disarmed (one-shot) points must not leak into the next run.
	if _, err := mrcc.Run(context.Background(), mrcc.Input{Dataset: ds}, mrcc.Config{}); err != nil {
		t.Fatalf("run after one-shot fault failed: %v", err)
	}
}
