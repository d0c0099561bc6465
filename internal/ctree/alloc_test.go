package ctree

import (
	"testing"

	"mrcc/internal/synthetic"
)

// TestBuildAllocationBudget pins the arena layout's allocation shape
// with an explicit budget: one Build over 10k points × 15 dims must
// stay within a fixed allocation count, so a regression back toward
// per-cell allocation (the pre-arena layout paid ~45 allocations per
// 1000 points at this shape — node structs, per-node maps, per-cell P
// slices) fails loudly rather than showing up as a quiet benchmark
// drift.
//
// The budget is ~2× the measured figure (about 650 allocations: arena
// column doublings, child-table builds, and the batch inserter's
// scratch — unchanged by the radix-sort rewrite, which reuses the
// inserter's ping-pong buffers) — loose enough to survive Go runtime
// changes, tight enough that any per-point or per-cell allocation
// pattern (>=10k extra allocations here) blows through it immediately.
func TestBuildAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is slow under -short")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the budget only holds on plain builds")
	}
	ds, _, err := synthetic.Generate(synthetic.Config{
		Dims: 15, Points: 10000, Clusters: 10, NoiseFrac: 0.15,
		MinClusterDim: 8, MaxClusterDim: 13, Seed: 314,
	})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1300
	allocs := testing.AllocsPerRun(3, func() {
		tr, err := Build(ds, 4, BuildOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Eta != ds.Len() {
			t.Fatalf("Eta = %d, want %d", tr.Eta, ds.Len())
		}
	})
	if allocs > budget {
		t.Fatalf("Build(10000x15d) allocated %.0f times, budget %d — the arena layout regressed toward per-cell allocation", allocs, budget)
	}
}
