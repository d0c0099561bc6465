package conv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/treeio"
)

func buildTree(t testing.TB, d, n int, seed int64, h int) (*ctree.Tree, *dataset.Dataset) {
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
	tr, err := ctree.Build(ds, h, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, ds
}

// naiveFaceValue recomputes the face-only Laplacian by brute force over
// the raw points.
func naiveFaceValue(t *ctree.Tree, ds *dataset.Dataset, p ctree.Path) int64 {
	d := t.D
	countIn := func(q ctree.Path) int64 {
		n := int64(0)
		for _, pt := range ds.Points {
			inside := true
			for j := 0; j < d; j++ {
				lo, hi := q.Bounds(j)
				if pt[j] < lo || pt[j] >= hi {
					inside = false
					break
				}
			}
			if inside {
				n++
			}
		}
		return n
	}
	v := int64(2*d) * countIn(p)
	for j := 0; j < d; j++ {
		for _, upper := range [2]bool{false, true} {
			if np, ok := p.NeighborInto(nil, j, upper); ok {
				v -= countIn(np)
			}
		}
	}
	return v
}

func TestFaceValueMatchesBruteForce(t *testing.T) {
	tr, ds := buildTree(t, 3, 300, 5, 4)
	for h := 2; h <= 3; h++ {
		ix := tr.EnsureLevelIndexes()[h-1]
		for i := 0; i < ix.Len(); i++ {
			p := ix.PathInto(nil, i)
			got := FaceValueScratch(ix, p, i, nil)
			want := naiveFaceValue(tr, ds, p)
			if got != want {
				t.Fatalf("level %d cell %v: FaceValue=%d brute=%d", h, p, got, want)
			}
		}
	}
}

func TestFaceValueIsolatedCellIsPositive(t *testing.T) {
	// A single dense cell with empty neighbors has value 2d·n.
	rows := [][]float64{}
	for i := 0; i < 50; i++ {
		rows = append(rows, []float64{0.6 + 0.01*float64(i%5), 0.6 + 0.01*float64(i/10)})
	}
	ds, err := dataset.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ctree.Build(ds, 4, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	ix := tr.EnsureLevelIndexes()[1]
	for i := 0; i < ix.Len(); i++ {
		if ix.N(i) == 50 {
			found = true
			if v := FaceValueScratch(ix, ix.PathInto(nil, i), i, nil); v != int64(2*2*50) {
				t.Errorf("isolated cell value = %d, want %d", v, 2*2*50)
			}
		}
	}
	if !found {
		t.Fatal("expected all 50 points in one level-2 cell")
	}
}

func TestFullValueMatchesFaceOnSparseDiagonal(t *testing.T) {
	// Points on a diagonal: corner neighbors exist, so FullValue must
	// differ from FaceValue where a corner cell is occupied.
	rows := [][]float64{}
	for i := 0; i < 8; i++ {
		v := float64(i)/8 + 0.01
		rows = append(rows, []float64{v, v})
	}
	ds, err := dataset.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ctree.Build(ds, 4, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	ix := tr.EnsureLevelIndexes()[2]
	for i := 0; i < ix.Len(); i++ {
		p := ix.PathInto(nil, i)
		fv := FaceValueScratch(ix, p, i, nil)
		uv := FullValue(ix, p, i)
		// FullValue subtracts corner neighbors too, so on the diagonal
		// it must be strictly smaller than the face-only response minus
		// the center-weight difference. Just check they are not equal
		// after removing the center-weight gap.
		centerGap := int64(9-1-2*2) * int64(ix.N(i)) // (3^2-1) - 2d
		if uv-centerGap != fv {
			diff = true
		}
	}
	if !diff {
		t.Error("FullValue never saw a corner neighbor on a diagonal layout")
	}
}

func TestFullValueBruteForce2D(t *testing.T) {
	tr, ds := buildTree(t, 2, 200, 9, 4)
	naiveFull := func(p ctree.Path) int64 {
		countIn := func(q ctree.Path) int64 {
			n := int64(0)
			for _, pt := range ds.Points {
				inside := true
				for j := 0; j < 2; j++ {
					lo, hi := q.Bounds(j)
					if pt[j] < lo || pt[j] >= hi {
						inside = false
						break
					}
				}
				if inside {
					n++
				}
			}
			return n
		}
		v := int64(8) * countIn(p)
		h := p.Level()
		limit := int64(1) << uint(h)
		c0, c1 := int64(p.Coord(0)), int64(p.Coord(1))
		for dx := int64(-1); dx <= 1; dx++ {
			for dy := int64(-1); dy <= 1; dy++ {
				if dx == 0 && dy == 0 {
					continue
				}
				nx, ny := c0+dx, c1+dy
				if nx < 0 || nx >= limit || ny < 0 || ny >= limit {
					continue
				}
				q := make(ctree.Path, h)
				for l := 0; l < h; l++ {
					if (nx>>uint(h-1-l))&1 == 1 {
						q[l] |= 1
					}
					if (ny>>uint(h-1-l))&1 == 1 {
						q[l] |= 2
					}
				}
				v -= countIn(q)
			}
		}
		return v
	}
	ix := tr.EnsureLevelIndexes()[1]
	for i := 0; i < ix.Len(); i++ {
		p := ix.PathInto(nil, i)
		got := FullValue(ix, p, i)
		want := naiveFull(p)
		if got != want {
			t.Fatalf("cell %v: FullValue=%d brute=%d", p, got, want)
		}
	}
}

func TestFaceNeighborCountsMatchLookups(t *testing.T) {
	tr, _ := buildTree(t, 3, 400, 21, 4)
	tr.WalkLevel(2, func(p ctree.Path, c ctree.Ref) {
		lower, upper := FaceNeighborCounts(tr.EnsureLevelIndexes()[1], p)
		for j := 0; j < tr.D; j++ {
			for _, up := range [2]bool{false, true} {
				var want int32
				if np, ok := p.NeighborInto(nil, j, up); ok {
					if nc := tr.CellAt(np); nc != ctree.NilRef {
						want = tr.N(nc)
					}
				}
				got := lower[j]
				if up {
					got = upper[j]
				}
				if got != want {
					t.Fatalf("axis %d upper=%v: count %d, want %d", j, up, got, want)
				}
			}
		}
	})
}

// faceSumPoints returns n uniform points in d dimensions plus a layout
// rich in face neighbors at every dimensionality: a base point in the
// middle half of the cube and copies of it moved by one cell side along
// a single axis, at levels 1, 2 and fine. Uniform points in high
// dimensions almost never share a face; the shifted copies do.
func faceSumPoints(d, n, fine int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.New(d, n)
	for i := 0; i < n; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		ds.Append(p)
	}
	base := make([]float64, d)
	for j := range base {
		base[j] = 0.25 + 0.5*rng.Float64()
	}
	ds.Append(base)
	for _, h := range []int{1, 2, fine} {
		for j := 0; j < d; j++ {
			q := append([]float64(nil), base...)
			if q[j] += ctree.SideLen(h); q[j] >= 1 {
				q[j] = base[j] - ctree.SideLen(h)
			}
			ds.Append(q)
		}
	}
	return ds
}

// faceSumProducers counts ds through the producers of the indexes the
// β-search reads, each the list of trees one index covers: Build; a
// tree fed by InsertBatch alone; a window tree, two trees fed batch by
// batch and merged by MergeFrom; that window tree after a treeio
// save/load round trip; and the window's two trees themselves, as a
// pass over several trees reads them.
func faceSumProducers(t *testing.T, ds *dataset.Dataset, H int) map[string][]*ctree.Tree {
	t.Helper()
	built, err := ctree.Build(ds, H, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	aging, active, firstTouch := ctree.New(ds.Dims, H), ctree.New(ds.Dims, H), ctree.New(ds.Dims, H)
	for i := 0; i < ds.Len(); i += 17 {
		dst := aging
		if i >= ds.Len()/2 {
			dst = active
		}
		pts := ds.Points[i:min(i+17, ds.Len())]
		if err := dst.InsertBatch(pts); err != nil {
			t.Fatal(err)
		}
		if err := firstTouch.InsertBatch(pts); err != nil {
			t.Fatal(err)
		}
	}
	window := aging.Clone()
	if err := window.MergeFrom(active); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := treeio.Save(&buf, window, treeio.Meta{}); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := treeio.Load(bytes.NewReader(buf.Bytes()), int64(len(buf.Bytes())), treeio.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]*ctree.Tree{
		"build":                   {built},
		"insertbatch":             {firstTouch},
		"window":                  {window},
		"window/treeio-roundtrip": {loaded},
		"window/two-tree":         {aging, active},
	}
}

// indexesOver returns the level indexes over srcs: the tree's own for
// one source, the union's otherwise.
func indexesOver(t *testing.T, srcs []*ctree.Tree) []*ctree.LevelIndex {
	t.Helper()
	if len(srcs) == 1 {
		return srcs[0].EnsureLevelIndexes()
	}
	idx, err := ctree.UnionLevelIndexes(srcs...)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// countAt returns the point count the sources store at path p, each
// resolved by a CellAt descent.
func countAt(srcs []*ctree.Tree, p ctree.Path) int64 {
	var n int64
	for _, tr := range srcs {
		if r := tr.CellAt(p); r != ctree.NilRef {
			n += int64(tr.N(r))
		}
	}
	return n
}

// TestFaceSumMatchesScratch pins the level index's face sums, which the
// index build accumulates as it links face neighbors, value for value
// against the per-cell reference: 2d·N(i) − FaceSum(i) must equal the
// face value summed from CellAt descents into every source, and so must
// FaceValueScratch's path lookups in the index, for every entry of
// every level, on every producer, at d ∈ {1, 15, 63} and
// H ∈ {4, MaxLevels}. It also checks that some face sum is non-zero at
// levels 1, 2 and the finest shifted one, so the pin covers resolved
// neighbors, not only absent ones.
func TestFaceSumMatchesScratch(t *testing.T) {
	for _, d := range []int{1, 15, 63} {
		for _, H := range []int{4, ctree.MaxLevels} {
			n := 300
			if H == ctree.MaxLevels || d == 63 {
				n = 60
			}
			// A one-cell shift below 2^-50 would round away in the
			// float64 coordinate of a point near the middle of the cube.
			fine := min(H-1, 50)
			ds := faceSumPoints(d, n, fine, int64(d*100+H))
			for name, srcs := range faceSumProducers(t, ds, H) {
				name = fmt.Sprintf("d%d_H%d/%s", d, H, name)
				twoD := int64(2 * d)
				for h, ix := range indexesOver(t, srcs) {
					h++
					scratch := make(ctree.Path, 0, h)
					var nb ctree.Path
					resolved := false
					for i := 0; i < ix.Len(); i++ {
						p := ix.PathInto(nil, i)
						want := twoD * countAt(srcs, p)
						for j := 0; j < d; j++ {
							for _, up := range [2]bool{false, true} {
								var ok bool
								if nb, ok = p.NeighborInto(nb, j, up); ok {
									want -= countAt(srcs, nb)
								}
							}
						}
						got := twoD*int64(ix.N(i)) - ix.FaceSum(i)
						if scr := FaceValueScratch(ix, p, i, scratch); got != want || scr != want {
							t.Fatalf("%s level %d entry %d: 2d·N − FaceSum = %d, FaceValueScratch %d, CellAt reference %d",
								name, h, i, got, scr, want)
						}
						resolved = resolved || ix.FaceSum(i) != 0
					}
					if !resolved && (h == 1 || h == 2 || h == fine) {
						t.Errorf("%s level %d: every face sum is zero; no neighbor resolved", name, h)
					}
				}
			}
		}
	}
}

// fullValueOffsets is the original FullValue, kept as the oracle of
// the allocation-free one: it builds each of the 3^d−1 offset paths
// from scratch (offsetPath) and resolves it with CellAt.
func fullValueOffsets(t *ctree.Tree, p ctree.Path, r ctree.Ref) int64 {
	d := t.D
	total := int64(1)
	for i := 0; i < d; i++ {
		total *= 3
	}
	v := (total - 1) * int64(t.N(r))
	offsets := make([]int, d)
	coords := make([]uint64, d)
	for j := 0; j < d; j++ {
		coords[j] = p.Coord(j)
	}
	limit := uint64(1) << uint(p.Level())
	var rec func(axis int, anyNonZero bool)
	rec = func(axis int, anyNonZero bool) {
		if axis == d {
			if !anyNonZero {
				return
			}
			np := offsetPath(p, coords, offsets, limit)
			if np == nil {
				return
			}
			if nc := t.CellAt(np); nc != ctree.NilRef {
				v -= int64(t.N(nc))
			}
			return
		}
		for _, o := range [3]int{-1, 0, 1} {
			offsets[axis] = o
			rec(axis+1, anyNonZero || o != 0)
		}
	}
	rec(0, false)
	return v
}

// offsetPath returns the path of the cell displaced by offsets from the
// cell at p, or nil when the displaced coordinates leave the grid.
func offsetPath(p ctree.Path, coords []uint64, offsets []int, limit uint64) ctree.Path {
	h := p.Level()
	out := make(ctree.Path, h)
	for j, c := range coords {
		nc := int64(c) + int64(offsets[j])
		if nc < 0 || uint64(nc) >= limit {
			return nil
		}
		mask := uint64(1) << uint(j)
		for l := 0; l < h; l++ {
			if (uint64(nc)>>uint(h-1-l))&1 == 1 {
				out[l] |= mask
			}
		}
	}
	return out
}

// TestFullValueMatchesOffsetOracle pins FullValue against the original
// offset-path implementation on every cell of every level, for
// d ∈ {2, 3, 5, 7} × H ∈ {3, 4, 6}, on clustered data so that most
// cells have stored neighbors in every direction. It also pins the
// evaluation allocation-free.
func TestFullValueMatchesOffsetOracle(t *testing.T) {
	for _, d := range []int{2, 3, 5, 7} {
		for _, H := range []int{3, 4, 6} {
			rng := rand.New(rand.NewSource(int64(10*d + H)))
			ds := dataset.New(d, 400)
			for i := 0; i < 400; i++ {
				p := make([]float64, d)
				for j := range p {
					p[j] = 0.3 + 0.4*rng.Float64()
				}
				ds.Append(p)
			}
			tr, err := ctree.Build(ds, H, ctree.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for h := 1; h <= H-1; h++ {
				ix := tr.EnsureLevelIndexes()[h-1]
				for i := 0; i < ix.Len(); i++ {
					p := ix.PathInto(nil, i)
					if got, want := FullValue(ix, p, i), fullValueOffsets(tr, p, tr.CellAt(p)); got != want {
						t.Fatalf("d=%d H=%d level %d cell %v: FullValue %d, oracle %d", d, H, h, p, got, want)
					}
				}
			}
			if raceEnabled {
				continue
			}
			ix := tr.EnsureLevelIndexes()[H-2]
			p := ix.PathInto(nil, 0)
			if allocs := testing.AllocsPerRun(5, func() { FullValue(ix, p, 0) }); allocs != 0 {
				t.Fatalf("d=%d H=%d: FullValue allocated %.1f times per call, want 0", d, H, allocs)
			}
		}
	}
}
