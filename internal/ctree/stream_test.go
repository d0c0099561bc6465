package ctree

import (
	"math/bits"
	"slices"
	"strings"
	"testing"

	"mrcc/internal/dataset"
)

// TestInsertBatchEqualsBuild pins that folding batches into a live
// tree through InsertBatch produces exactly the tree Build constructs
// from the whole dataset, row for row and with its footprint — the
// property the facade's streaming loop relies on — and that one call
// of the whole dataset into an empty tree writes Build's canonical tree
// itself.
func TestInsertBatchEqualsBuild(t *testing.T) {
	for _, d := range []int{3, 9} {
		ds := uniformDataset(t, d, 7001, 61)
		whole, err := Build(ds, 4, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		live := New(d, 4)
		// Deliberately odd batch sizes.
		for lo := 0; lo < ds.Len(); {
			hi := lo + 1713
			if hi > ds.Len() {
				hi = ds.Len()
			}
			if err := live.InsertBatch(ds.Points[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		if !treesEqual(t, whole, live) {
			t.Fatalf("d=%d: batched incremental insertion diverged from Build", d)
		}
		if want := whole.MemoryBytes(); live.MemoryBytes() != want || !sameColumns(live.Columns(), whole.Columns()) {
			t.Fatalf("d=%d: batched tree reports %d bytes, want Build's columns and footprint %d", d, live.MemoryBytes(), want)
		}
	}
	// One call runs Build's sort and count phases over one stream, so
	// the cells are created in Build's DFS preorder: both key layouts,
	// a duplicate-heavy input whose longest run outgrows the count
	// loop's leaf buffer, all past buildReportEvery points.
	for _, tc := range []struct {
		name    string
		d, H, n int
		dups    bool
	}{
		{"packed_d5_H4", 5, 4, 3*buildReportEvery + 17, false},
		{"packed_d19_H4", 19, 4, buildReportEvery + 1000, false},
		{"multiword_d15_H6", 15, 6, buildReportEvery + 1000, false},
		{"duplicates_d5_H4", 5, 4, 2*buildReportEvery + 5, true},
		{"duplicates_d15_H6", 15, 6, 2*buildReportEvery + 5, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := uniformDataset(t, tc.d, tc.n, 67)
			if tc.dups {
				// Every other point repeats one of 50 points, and one of
				// them repeats buildReportEvery+100 times in a row
				// mid-stream.
				for i := 0; i < tc.n; i += 2 {
					ds.Points[i] = ds.Points[1+2*(i%50)]
				}
				for i := tc.n / 4; i < tc.n/4+buildReportEvery+100; i++ {
					ds.Points[i] = ds.Points[1]
				}
			}
			whole, err := Build(ds, tc.H, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			one := New(tc.d, tc.H)
			if err := one.InsertBatch(ds.Points); err != nil {
				t.Fatal(err)
			}
			if !sameColumns(one.Columns(), whole.Columns()) || one.Eta != whole.Eta {
				t.Fatal("one InsertBatch call wrote other columns than Build")
			}
			if want := whole.MemoryBytes(); one.MemoryBytes() != want {
				t.Fatalf("one-call tree reports %d bytes, want Build's footprint %d", one.MemoryBytes(), want)
			}
		})
	}
}

// TestInsertBatchAtomicOnError pins that a rejected batch leaves the
// tree untouched: a bad point anywhere in the batch must not leak any
// partial counts into a live serving tree.
func TestInsertBatchAtomicOnError(t *testing.T) {
	ds := uniformDataset(t, 5, 300, 62)
	tree, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := tree.Clone()
	bad := [][]float64{
		{0.1, 0.2, 0.3, 0.4, 0.5},
		{0.6, 0.7, 1.2, 0.8, 0.9}, // out of [0,1)
	}
	if err := tree.InsertBatch(bad); err == nil || !strings.Contains(err.Error(), "outside [0,1)") {
		t.Fatalf("InsertBatch(bad) = %v, want an out-of-range error", err)
	}
	short := [][]float64{{0.1, 0.2}}
	if err := tree.InsertBatch(short); err == nil || !strings.Contains(err.Error(), "want 5") {
		t.Fatalf("InsertBatch(short) = %v, want a dimensionality error", err)
	}
	if !treesEqual(t, before, tree) || tree.Eta != before.Eta {
		t.Fatal("rejected batch mutated the tree")
	}
	if err := tree.InsertBatch(nil); err != nil {
		t.Fatalf("InsertBatch(nil) = %v, want nil", err)
	}
}

// TestCloneIndependence pins Clone's contract: the copy matches the
// original cell-for-cell (including Used flags and the exact memory
// accounting) and further mutation of either tree leaves the other
// alone.
func TestCloneIndependence(t *testing.T) {
	ds := uniformDataset(t, 7, 2500, 63)
	orig, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Set some flags of the Used column, which the clone must copy.
	orig.WalkLevel(2, func(p Path, r Ref) { orig.used[r] = true })
	clone := orig.Clone()
	if !treesEqual(t, orig, clone) {
		t.Fatal("clone differs from the original")
	}
	if clone.MemoryBytes() != orig.MemoryBytes() {
		t.Fatalf("clone reports %d bytes, original %d", clone.MemoryBytes(), orig.MemoryBytes())
	}
	// Mutating the original (more points, flag churn) must not leak into
	// the clone, and vice versa.
	snapshot := clone.Clone()
	extra := uniformDataset(t, 7, 400, 64)
	if err := orig.InsertBatch(extra.Points); err != nil {
		t.Fatal(err)
	}
	clear(orig.used)
	if !treesEqual(t, snapshot, clone) {
		t.Fatal("mutating the original changed the clone")
	}
	if err := clone.InsertBatch(extra.Points); err != nil {
		t.Fatal(err)
	}
	clear(clone.used)
	if !treesEqual(t, orig, clone) {
		t.Fatal("identical mutations of original and clone diverged")
	}
}

// TestCloneThenMergeMatchesCombinedBuild pins the merged-view recipe:
// clone one tree, MergeFrom another, and the result equals one build
// over both trees' points.
func TestCloneThenMergeMatchesCombinedBuild(t *testing.T) {
	d := 6
	agingPts := uniformDataset(t, d, 1500, 65)
	activePts := uniformDataset(t, d, 900, 66)
	aging, err := Build(agingPts, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	active, err := Build(activePts, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	merged := aging.Clone()
	if err := merged.MergeFrom(active); err != nil {
		t.Fatal(err)
	}
	all := &dataset.Dataset{Dims: d, Points: append(append([][]float64{}, agingPts.Points...), activePts.Points...)}
	whole, err := Build(all, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !treesEqual(t, whole, merged) {
		t.Fatal("clone+merge view diverged from the combined build")
	}
	if Equal(aging, merged) {
		t.Fatal("merge mutated nothing? merged view equals the aging tree")
	}
}

// TestRunsShape pins the run list's shape and its immutability. Fed
// equal batches of b points, each run holds more than twice the points
// of the next, and n points make at most ⌈log2(n/b)⌉ + 1 runs. Add
// leaves the receiver's runs and backing array as they were, so a list
// a reader holds reads the same. A batch that would push the list past
// MaxPoints (simulated Eta) is refused before it is built, with the
// list returned unchanged, and one that reaches MaxPoints is accepted.
func TestRunsShape(t *testing.T) {
	const d, H, b = 5, 4, 10
	pts := uniformDataset(t, d, 2000, 72).Points
	var runs Runs
	for n := b; n <= len(pts); n += b {
		held := runs[:cap(runs)]
		before := slices.Clone(held)
		next, err := runs.Add(pts[n-b:n], d, H)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(held, before) || runs.Points() != n-b {
			t.Fatalf("%d points: Add wrote the receiver's list", n)
		}
		if next.Points() != n || len(next) > bits.Len(uint(n/b-1))+1 {
			t.Fatalf("%d points in %d runs, want %d points in at most %d runs", next.Points(), len(next), n, bits.Len(uint(n/b-1))+1)
		}
		for i := 1; i < len(next); i++ {
			if next[i-1].Eta <= 2*next[i].Eta {
				t.Fatalf("%d points: run %d holds %d points, run %d %d", n, i-1, next[i-1].Eta, i, next[i].Eta)
			}
		}
		runs = next
	}

	full, err := Build(&dataset.Dataset{Dims: d, Points: pts[:1]}, H, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full.Eta = MaxPoints - b
	list := Runs{full}
	// The batch's first point is invalid, so only a check made before
	// the build can report MaxPoints.
	bad := append([][]float64{{2, 0, 0, 0, 0}}, pts[:b]...)
	if got, err := list.Add(bad, d, H); err == nil || !strings.Contains(err.Error(), "MaxPoints") || !slices.Equal(got, list) {
		t.Fatalf("a batch past MaxPoints gave %v, want a MaxPoints error before the build and the list unchanged", err)
	}
	if got, err := list.Add(pts[:b], d, H); err != nil || got.Points() != MaxPoints {
		t.Fatalf("a batch reaching MaxPoints gave %v", err)
	}
}
