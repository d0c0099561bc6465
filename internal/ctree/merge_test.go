package ctree

import (
	"fmt"
	"testing"

	"mrcc/internal/dataset"
)

// treesEqual compares two trees cell by cell (counts, half-space
// counts, and usedCell flags), ignoring iteration order. It finds a's
// cells in b with b.CellAt, or, when b is a first-touch arena (the
// Insert oracle's), which CellAt cannot descend, through a map of b's
// paths.
func treesEqual(t *testing.T, a, b *Tree) bool {
	t.Helper()
	if a.D != b.D || a.H != b.H || a.Eta != b.Eta {
		return false
	}
	find := b.CellAt
	if !b.scanCanonical() {
		refs := map[string]Ref{}
		for h := 1; h <= b.H-1; h++ {
			b.WalkLevel(h, func(p Path, r Ref) { refs[fmt.Sprint(p)] = r })
		}
		find = func(p Path) Ref {
			if r, ok := refs[fmt.Sprint(p)]; ok {
				return r
			}
			return NilRef
		}
	}
	equal := true
	for h := 1; h <= a.H-1; h++ {
		a.WalkLevel(h, func(p Path, ra Ref) {
			rb := find(p)
			if rb == NilRef || a.N(ra) != b.N(rb) || a.Used(ra) != b.Used(rb) {
				equal = false
				return
			}
			for j := 0; j < a.D; j++ {
				if a.P(ra, j) != b.P(rb, j) {
					equal = false
					return
				}
			}
		})
		if a.levelCellCountsWalk()[h] != b.levelCellCountsWalk()[h] {
			equal = false
		}
	}
	return equal
}

func TestInsertMatchesBuild(t *testing.T) {
	ds := uniformDataset(t, 4, 500, 3)
	built, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	incremental := New(4, 4)
	for _, p := range ds.Points {
		if err := incremental.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if !treesEqual(t, built, incremental) {
		t.Fatal("incremental insertion diverged from Build")
	}
}

func TestInsertValidation(t *testing.T) {
	tr, err := Build(uniformDataset(t, 3, 10, 1), 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]float64{0.5, 0.5}); err == nil {
		t.Error("wrong dimensionality accepted")
	}
	if err := tr.Insert([]float64{0.5, 0.5, 1.5}); err == nil {
		t.Error("out-of-cube point accepted")
	}
	if tr.Eta != 10 {
		t.Errorf("failed inserts changed Eta to %d", tr.Eta)
	}
}

func TestMergeFromEqualsWholeBuild(t *testing.T) {
	ds := uniformDataset(t, 5, 700, 7)
	whole, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	half := ds.Len() / 2
	left, err := Build(&dataset.Dataset{Dims: ds.Dims, Points: ds.Points[:half]}, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	right, err := Build(&dataset.Dataset{Dims: ds.Dims, Points: ds.Points[half:]}, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := left.MergeFrom(right); err != nil {
		t.Fatal(err)
	}
	if !treesEqual(t, whole, left) {
		t.Fatal("merged shards diverged from the whole build")
	}
}

// TestMergeFromEmptyShard pins the edge case of an empty shard tree:
// merging an empty tree must change nothing, in either direction.
func TestMergeFromEmptyShard(t *testing.T) {
	ds := uniformDataset(t, 4, 300, 5)
	whole, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	built, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	empty := New(4, 4)
	if err := built.MergeFrom(empty); err != nil {
		t.Fatalf("merging an empty shard: %v", err)
	}
	if !treesEqual(t, whole, built) {
		t.Fatal("merging an empty shard changed the tree")
	}
	// The other direction: counting a full shard into a fresh tree.
	empty = New(4, 4)
	if err := empty.MergeFrom(built); err != nil {
		t.Fatalf("merging into an empty tree: %v", err)
	}
	if !treesEqual(t, whole, empty) {
		t.Fatal("merging into an empty tree diverged from Build")
	}
}

// TestMergeFromSinglePointShards merges η one-point trees — the most
// extreme sharding possible — and must reproduce Build exactly: counts,
// P[j] half-space counts, and (clear) usedCell flags cell-for-cell.
func TestMergeFromSinglePointShards(t *testing.T) {
	ds := uniformDataset(t, 5, 120, 13)
	whole, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	merged := New(5, 4)
	for i := range ds.Points {
		shard, err := Build(&dataset.Dataset{Dims: ds.Dims, Points: ds.Points[i : i+1]}, 4, BuildOptions{})
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if shard.Eta != 1 {
			t.Fatalf("point %d: shard Eta = %d, want 1", i, shard.Eta)
		}
		if err := merged.MergeFrom(shard); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
	}
	if !treesEqual(t, whole, merged) {
		t.Fatal("single-point shards merged diverged from the whole build")
	}
}

// TestMergeFromDifferingIterationOrders builds the two shards from
// opposite traversal orders of the data, so their first-touch cell
// orders differ, then checks both merge orders (A←B and B←A) reproduce
// Build cell-for-cell. This is the property the deterministic scan
// tie-break relies on: merged trees may iterate differently but must
// count identically.
func TestMergeFromDifferingIterationOrders(t *testing.T) {
	ds := uniformDataset(t, 5, 800, 29)
	whole, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	half := ds.Len() / 2
	reversed := dataset.New(ds.Dims, ds.Len())
	for i := ds.Len() - 1; i >= 0; i-- {
		reversed.Append(ds.Points[i])
	}
	// Shard A: first half, natural order. Shard B: second half, reversed
	// order (same multiset of points, different insertion order).
	a, err := Build(&dataset.Dataset{Dims: ds.Dims, Points: ds.Points[:half]}, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(&dataset.Dataset{Dims: ds.Dims, Points: reversed.Points[:ds.Len()-half]}, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	aIntoB := New(ds.Dims, 4)
	for _, src := range []*Tree{b, a} {
		if err := aIntoB.MergeFrom(src); err != nil {
			t.Fatal(err)
		}
	}
	bIntoA := New(ds.Dims, 4)
	for _, src := range []*Tree{a, b} {
		if err := bIntoA.MergeFrom(src); err != nil {
			t.Fatal(err)
		}
	}
	if !treesEqual(t, whole, aIntoB) {
		t.Fatal("merge order B,A diverged from the whole build")
	}
	if !treesEqual(t, whole, bIntoA) {
		t.Fatal("merge order A,B diverged from the whole build")
	}
}

func TestMergeFromValidation(t *testing.T) {
	a, _ := Build(uniformDataset(t, 3, 20, 1), 4, BuildOptions{})
	b, _ := Build(uniformDataset(t, 4, 20, 1), 4, BuildOptions{})
	if err := a.MergeFrom(b); err == nil {
		t.Error("dimensionality mismatch accepted")
	}
	c, _ := Build(uniformDataset(t, 3, 20, 1), 5, BuildOptions{})
	if err := a.MergeFrom(c); err == nil {
		t.Error("resolution mismatch accepted")
	}
	if err := a.MergeFrom(nil); err != nil {
		t.Errorf("nil merge should be a no-op, got %v", err)
	}
}

func TestBuildParallelEmpty(t *testing.T) {
	if _, err := Build(dataset.New(3, 0), 4, BuildOptions{Workers: 2}); err == nil {
		t.Error("empty dataset accepted")
	}
}

// TestUnionOrsUsedFlags pins Union's usedCell rule: a cell of the union
// is used when any source's copy of it is, whichever source that is and
// whatever its arena order.
func TestUnionOrsUsedFlags(t *testing.T) {
	a, err := Build(uniformDataset(t, 3, 400, 61), 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := New(3, 4)
	if err := b.InsertBatch(uniformDataset(t, 3, 400, 62).Points); err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= 3; h++ {
		i := 0
		a.WalkLevel(h, func(_ Path, r Ref) { a.used[r] = i%2 == 0; i++ })
		b.WalkLevel(h, func(_ Path, r Ref) { b.used[r] = i%3 == 0; i++ })
	}
	u, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	used := 0
	for h := 1; h <= 3; h++ {
		u.WalkLevel(h, func(p Path, r Ref) {
			ra, rb := a.CellAt(p), b.CellAt(p)
			want := (ra >= 0 && a.Used(ra)) || (rb >= 0 && b.Used(rb))
			if u.Used(r) != want {
				t.Fatalf("level %d cell %v: used %v, its sources' OR %v", h, p, u.Used(r), want)
			}
			if want {
				used++
			}
		})
	}
	if used == 0 || int64(used) == u.CellCount() {
		t.Fatalf("%d of %d union cells used; the test is vacuous", used, u.CellCount())
	}
}
