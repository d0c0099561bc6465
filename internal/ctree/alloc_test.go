package ctree

import (
	"runtime"
	"testing"

	"mrcc/internal/synthetic"
)

// buildScratchBytes is what one Build may allocate beyond its tree and
// its sort columns: the count loop's 64 KiB leaf buffer plus the
// merge heap, the descent stacks and the goroutine of its one sort
// worker.
const buildScratchBytes = 128 << 10

// TestBuildAllocationBudget pins the build's allocation shape with
// explicit budgets on one Workers-1 Build over 10k points × 15 dims:
//
//   - the arena is allocated once, at its final size (the build
//     reports no arena growth);
//   - the build allocates at most its tree's final MemoryBytes, plus
//     η·ExternalRecordBytes(d, H) for the sorted record columns, plus
//     buildScratchBytes — an arena that doubled its way up (about 3 MB
//     more here) or a per-point allocation fails it;
//   - it allocates at most 30 times, the measured 26 (the tree and its
//     six columns, the sort columns and their radix scratch, and the
//     merge's and the sort worker's small buffers) plus 10%, so a regression
//     that allocates per wide node (one child table each would add about
//     350 here) or per cell (the pre-arena layout paid ~45 allocations
//     per 1000 points at this shape) fails loudly rather than showing up
//     as a quiet benchmark drift.
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
	const H = 4
	build := func() *Tree {
		tr, err := Build(ds, H, BuildOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Eta != ds.Len() {
			t.Fatalf("Eta = %d, want %d", tr.Eta, ds.Len())
		}
		return tr
	}
	const budget = 30
	if allocs := testing.AllocsPerRun(3, func() { build() }); allocs > budget {
		t.Fatalf("Build(10000x15d) allocated %.0f times, budget %d — the arena layout regressed toward per-cell allocation", allocs, budget)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := build()
	runtime.ReadMemStats(&after)
	if _, st, err := buildCounted(ds, H, BuildOptions{Workers: 1}); err != nil || st.ArenaGrows != 0 {
		t.Fatalf("Build grew its arena %d times (err %v), want 0 (allocated once at its final size)", st.ArenaGrows, err)
	}
	bytesBudget := tr.MemoryBytes() + uint64(ds.Len()*ExternalRecordBytes(ds.Dims, H)) + buildScratchBytes
	if got := after.TotalAlloc - before.TotalAlloc; got > bytesBudget {
		t.Fatalf("Build(10000x15d) allocated %d bytes, budget %d (MemoryBytes %d + sort columns %d + scratch %d)",
			got, bytesBudget, tr.MemoryBytes(), ds.Len()*ExternalRecordBytes(ds.Dims, H), buildScratchBytes)
	}
}
