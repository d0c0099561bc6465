package ctree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mrcc/internal/dataset"
)

func uniformDataset(t testing.TB, d, n int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.New(d, n)
	for i := 0; i < n; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		ds.Append(p)
	}
	return ds
}

// TestBuildRejectsBadInput pins the build's one geometry validation:
// every configuration — in memory at several worker counts, and
// spilled — refuses the same inputs with the same error, before it
// shards, sorts or spills anything.
func TestBuildRejectsBadInput(t *testing.T) {
	wide := dataset.New(MaxDims+1, 100)
	for i := 0; i < 100; i++ {
		wide.Append(make([]float64, MaxDims+1))
	}
	ds := uniformDataset(t, 3, 100, 1)
	cases := []struct {
		name string
		ds   *dataset.Dataset
		H    int
		want string
	}{
		{"nil", nil, 4, "ctree: empty dataset"},
		{"empty", dataset.New(3, 0), 4, "ctree: empty dataset"},
		{"d=64", wide, 4, "ctree: dimensionality 64 exceeds the maximum 63"},
		{"H=0", ds, 0, "ctree: H must be >= 3, got 0"},
		{"H=2", ds, 2, "ctree: H must be >= 3, got 2"},
		{"H=61", ds, 61, "ctree: H must be <= 60, got 61"},
	}
	for _, workers := range []int{1, 2, 8} {
		for _, spill := range []bool{false, true} {
			for _, tc := range cases {
				opt := BuildOptions{Workers: workers}
				if spill {
					opt.SpillDir = t.TempDir()
				}
				tr, err := Build(tc.ds, tc.H, opt)
				if err == nil || err.Error() != tc.want || tr != nil {
					t.Errorf("workers=%d spill=%v %s: got (%v, %v), want error %q",
						workers, spill, tc.name, tr, err, tc.want)
				}
			}
		}
	}
	bad, _ := dataset.FromRows([][]float64{{0.5, 1.5}})
	if _, err := Build(bad, 4, BuildOptions{}); err == nil {
		t.Error("non-normalized dataset accepted")
	}
}

func TestLevelCountsSumToEta(t *testing.T) {
	ds := uniformDataset(t, 4, 500, 7)
	tr, err := Build(ds, 5, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= tr.H-1; h++ {
		sum := 0
		tr.WalkLevel(h, func(_ Path, r Ref) { sum += int(tr.N(r)) })
		if sum != ds.Len() {
			t.Errorf("level %d: counts sum to %d, want %d", h, sum, ds.Len())
		}
	}
}

func TestChildCountsSumToParent(t *testing.T) {
	ds := uniformDataset(t, 3, 800, 11)
	tr, err := Build(ds, 5, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= tr.H-2; h++ {
		tr.WalkLevel(h, func(p Path, r Ref) {
			sum, kids := 0, 0
			for ch, par := range tr.parent {
				if par == r {
					sum += int(tr.N(Ref(ch)))
					kids++
				}
			}
			if kids == 0 {
				t.Fatalf("level %d cell has no children despite not being the deepest level", h)
			}
			if sum != int(tr.N(r)) {
				t.Errorf("level %d cell: children sum %d != parent %d", h, sum, tr.N(r))
			}
		})
	}
}

func TestHalfSpaceCountsMatchData(t *testing.T) {
	// Recompute every cell's half-space counts from the raw data and
	// compare: P[j] counts the cell's points in its lower half along j.
	ds := uniformDataset(t, 3, 400, 13)
	const H = 4
	tr, err := Build(ds, H, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= H-1; h++ {
		tr.WalkLevel(h, func(p Path, r Ref) {
			for j := 0; j < tr.D; j++ {
				lo, hi := p.Bounds(j)
				mid := (lo + hi) / 2
				want := 0
				for _, pt := range ds.Points {
					inside := true
					for jj := 0; jj < tr.D; jj++ {
						l2, h2 := p.Bounds(jj)
						if pt[jj] < l2 || pt[jj] >= h2 {
							inside = false
							break
						}
					}
					if inside && pt[j] < mid {
						want++
					}
				}
				if int(tr.P(r, j)) != want {
					t.Fatalf("level %d axis %d: P=%d, recomputed %d", h, j, tr.P(r, j), want)
				}
			}
		})
	}
}

func TestCellAtFindsEveryWalkedCell(t *testing.T) {
	ds := uniformDataset(t, 4, 300, 17)
	tr, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for h := 1; h <= tr.H-1; h++ {
		tr.WalkLevel(h, func(p Path, r Ref) {
			if got := tr.CellAt(p); got != r {
				t.Fatalf("CellAt(%v) returned a different cell", p)
			}
		})
	}
	if tr.CellAt(Path{1 << 10}) != NilRef {
		t.Error("CellAt for absent path should be NilRef")
	}
}

func TestPathCoordRoundTrip(t *testing.T) {
	// Property: building the path of a known coordinate and reading the
	// coordinate back is the identity.
	f := func(raw uint32, axis uint8, level uint8) bool {
		h := int(level%6) + 1
		d := int(axis%5) + 1
		j := int(axis) % d
		c := uint64(raw) & ((1 << uint(h)) - 1)
		p := make(Path, h)
		for l := 0; l < h; l++ {
			if (c>>uint(h-1-l))&1 == 1 {
				p[l] |= 1 << uint(j)
			}
		}
		return p.Coord(j) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPathNeighborGeometry(t *testing.T) {
	// The face neighbor along axis j shifts the coordinate by exactly
	// one cell and leaves every other axis untouched.
	f := func(locs []uint8, axis uint8) bool {
		if len(locs) == 0 || len(locs) > 8 {
			return true
		}
		d := 4
		j := int(axis) % d
		p := make(Path, len(locs))
		for i, l := range locs {
			p[i] = uint64(l) & ((1 << uint(d)) - 1)
		}
		for _, upper := range []bool{false, true} {
			np, ok := p.NeighborInto(nil, j, upper)
			if !ok {
				continue
			}
			want := int64(p.Coord(j)) - 1
			if upper {
				want = int64(p.Coord(j)) + 1
			}
			if int64(np.Coord(j)) != want {
				return false
			}
			for jj := 0; jj < d; jj++ {
				if jj != j && np.Coord(jj) != p.Coord(jj) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPathNeighborAtBorders(t *testing.T) {
	p := Path{0, 0} // coordinate 0 on every axis at level 2
	if _, ok := p.NeighborInto(nil, 0, false); ok {
		t.Error("lower neighbor at coordinate 0 should not exist")
	}
	top := Path{1, 1} // coordinate 3 (max at level 2) on axis 0
	if _, ok := top.NeighborInto(nil, 0, true); ok {
		t.Error("upper neighbor at the space border should not exist")
	}
	if np, ok := top.NeighborInto(nil, 0, false); !ok || np.Coord(0) != 2 {
		t.Error("lower neighbor of coordinate 3 should be 2")
	}
}

func TestPathBounds(t *testing.T) {
	p := Path{1, 0} // axis 0: bits 1,0 -> coord 2 at level 2 -> [0.5, 0.75)
	lo, hi := p.Bounds(0)
	if math.Abs(lo-0.5) > 1e-15 || math.Abs(hi-0.75) > 1e-15 {
		t.Errorf("bounds = [%g, %g), want [0.5, 0.75)", lo, hi)
	}
}

func TestPathCompare(t *testing.T) {
	a := Path{0, 1}
	b := Path{1, 0}
	if a.Compare(b) >= 0 || b.Compare(a) <= 0 || a.Compare(a) != 0 {
		t.Error("lexicographic comparison wrong")
	}
	short := Path{0}
	if short.Compare(a) >= 0 {
		t.Error("shorter prefix should order first")
	}
}

func TestDeterministicWalkOrder(t *testing.T) {
	ds := uniformDataset(t, 4, 200, 23)
	t1, _ := Build(ds, 4, BuildOptions{})
	t2, _ := Build(ds, 4, BuildOptions{})
	var p1, p2 []Path
	t1.WalkLevel(2, func(p Path, _ Ref) { p1 = append(p1, p.Clone()) })
	t2.WalkLevel(2, func(p Path, _ Ref) { p2 = append(p2, p.Clone()) })
	if len(p1) != len(p2) {
		t.Fatalf("different cell counts: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i].Compare(p2[i]) != 0 {
			t.Fatalf("walk order differs at %d", i)
		}
	}
}

func TestMemoryBytesGrowsWithData(t *testing.T) {
	small, _ := Build(uniformDataset(t, 4, 100, 31), 4, BuildOptions{})
	large, _ := Build(uniformDataset(t, 4, 10000, 31), 4, BuildOptions{})
	if small.MemoryBytes() >= large.MemoryBytes() {
		t.Errorf("memory should grow with data: %d vs %d", small.MemoryBytes(), large.MemoryBytes())
	}
}

func TestSideLen(t *testing.T) {
	for h, want := range map[int]float64{0: 1, 1: 0.5, 2: 0.25, 3: 0.125} {
		if got := SideLen(h); got != want {
			t.Errorf("SideLen(%d) = %g, want %g", h, got, want)
		}
	}
}

func TestLevelCellCountBounds(t *testing.T) {
	ds := uniformDataset(t, 5, 1000, 37)
	tr, _ := Build(ds, 4, BuildOptions{})
	for h := 1; h <= 3; h++ {
		n := tr.levelCellCountsWalk()[h]
		if n < 1 || n > ds.Len() {
			t.Errorf("level %d has %d cells, want within [1, %d]", h, n, ds.Len())
		}
	}
}
