package ctree

import (
	"math"
	"strings"
	"testing"

	"mrcc/internal/dataset"
)

// TestInsertRefusesPastMaxPoints pins the int32 overflow guard: a tree
// that already counts MaxPoints points must refuse further insertions
// instead of silently wrapping Cell.N. (The counter is simulated — no
// test can insert 2^31 real points.)
func TestInsertRefusesPastMaxPoints(t *testing.T) {
	ds := dataset.New(2, 1)
	ds.Append([]float64{0.25, 0.75})
	tree, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tree.Eta = MaxPoints
	err = tree.Insert([]float64{0.5, 0.5})
	if err == nil {
		t.Fatal("Insert past MaxPoints accepted; int32 cell counts would wrap")
	}
	if !strings.Contains(err.Error(), "MaxPoints") {
		t.Errorf("overflow error does not name MaxPoints: %v", err)
	}
	// One short of the limit must still work.
	tree.Eta = MaxPoints - 1
	if err := tree.Insert([]float64{0.5, 0.5}); err != nil {
		t.Fatalf("Insert at MaxPoints-1 rejected: %v", err)
	}
	if tree.Eta != MaxPoints {
		t.Errorf("Eta = %d, want %d", tree.Eta, MaxPoints)
	}
}

// TestMergeRefusesOverflow pins the shard-merge side of the guard: two
// trees whose point counts sum past MaxPoints must refuse to merge, and
// the destination must be left untouched.
func TestMergeRefusesOverflow(t *testing.T) {
	build := func(v float64) *Tree {
		ds := dataset.New(2, 1)
		ds.Append([]float64{v, v})
		tree, err := Build(ds, 4, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	a := build(0.25)
	b := build(0.75)
	a.Eta = MaxPoints - 1
	b.Eta = 2
	if err := a.MergeFrom(b); err == nil {
		t.Fatal("merge summing past MaxPoints accepted")
	}
	if a.Eta != MaxPoints-1 {
		t.Errorf("failed merge mutated destination: Eta = %d, want %d", a.Eta, MaxPoints-1)
	}
	// Exactly at the limit is fine.
	b.Eta = 1
	if err := a.MergeFrom(b); err != nil {
		t.Fatalf("merge summing to exactly MaxPoints rejected: %v", err)
	}
	if a.Eta != MaxPoints {
		t.Errorf("Eta = %d, want %d", a.Eta, MaxPoints)
	}
}

// TestUnionIndexRefusesOverflow pins UnionLevelIndexes to Union's
// guards: sources whose points sum past MaxPoints (simulated through
// Eta, as TestMergeRefusesOverflow does) or whose geometry differs are
// refused, and sources summing to exactly MaxPoints are indexed.
func TestUnionIndexRefusesOverflow(t *testing.T) {
	build := func(v float64, h int) *Tree {
		ds := dataset.New(2, 1)
		ds.Append([]float64{v, v})
		tree, err := Build(ds, h, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	a, b := build(0.25, 4), build(0.75, 4)
	a.Eta, b.Eta = MaxPoints-1, 2
	if _, err := UnionLevelIndexes(a, b); err == nil || !strings.Contains(err.Error(), "MaxPoints") {
		t.Fatalf("sources summing past MaxPoints: err = %v, want a MaxPoints refusal", err)
	}
	b.Eta = 1
	if idx, err := UnionLevelIndexes(a, b); err != nil || idx[0].Len() != 2 {
		t.Fatalf("sources summing to exactly MaxPoints: err = %v", err)
	}
	if _, err := UnionLevelIndexes(a, build(0.5, 5)); err == nil {
		t.Fatal("sources of different H indexed together")
	}
	if _, err := UnionLevelIndexes(); err == nil {
		t.Fatal("an index over no trees was built")
	}
}

// TestUnionRefusesBadInput pins Union's refusals: no trees, a nil
// tree, trees of different dimensionality or resolution count, and
// trees whose points sum past MaxPoints (simulated through Eta, as
// TestMergeRefusesOverflow does). Trees summing to exactly MaxPoints
// unite.
func TestUnionRefusesBadInput(t *testing.T) {
	build := func(v float64, d, h int) *Tree {
		ds := dataset.New(d, 1)
		p := make([]float64, d)
		for j := range p {
			p[j] = v
		}
		ds.Append(p)
		tree, err := Build(ds, h, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	if _, err := Union(); err == nil {
		t.Error("a union of no trees was written")
	}
	if _, err := Union(build(0.25, 2, 4), nil); err == nil {
		t.Error("a nil tree was united")
	}
	if _, err := Union(build(0.25, 2, 4), build(0.5, 3, 4)); err == nil {
		t.Error("trees of different d were united")
	}
	if _, err := Union(build(0.25, 2, 4), build(0.5, 2, 5)); err == nil {
		t.Error("trees of different H were united")
	}
	a, b := build(0.25, 2, 4), build(0.75, 2, 4)
	a.Eta, b.Eta = MaxPoints-1, 2
	if _, err := Union(a, b); err == nil || !strings.Contains(err.Error(), "MaxPoints") {
		t.Fatalf("trees summing past MaxPoints: err = %v, want a MaxPoints refusal", err)
	}
	b.Eta = 1
	if u, err := Union(a, b); err != nil || u.Eta != MaxPoints {
		t.Fatalf("trees summing to exactly MaxPoints: err = %v", err)
	}
}

// TestMaxPointsIsInt32Max documents why the limit exists at all.
func TestMaxPointsIsInt32Max(t *testing.T) {
	if MaxPoints != math.MaxInt32 {
		t.Errorf("MaxPoints = %d, want math.MaxInt32 (Cell.N/Cell.P are int32)", MaxPoints)
	}
}
