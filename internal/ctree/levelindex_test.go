package ctree

import (
	"math/rand"
	"testing"

	"mrcc/internal/dataset"
)

// indexTestTree builds a tree over pseudo-random points.
func indexTestTree(t *testing.T, d, n, H int, seed int64) (*Tree, *dataset.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := &dataset.Dataset{Dims: d}
	for i := 0; i < n; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		ds.Points = append(ds.Points, p)
	}
	tr, err := Build(ds, H, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, ds
}

// TestLevelIndexLookupAbsent pins the miss path of the upper links (kept
// by LevelIndexesWithLinks, which the production build drops): a
// neighbor cell that is not stored must link to -1, not to a stored
// cell nearby. The two points sit at x-coords 0 and 1 on level 1, 1
// and 3 on level 2, 2 and 7 on level 3, all at y-coord 0, so the one
// stored face neighbor is level 1's (0,0) → (1,0) along x. Every other
// link must be absent: an unstored sibling, the grid edge, and level
// 2's (1,0), whose parent's upper neighbor is stored but whose own
// upper neighbor (2,0) is not.
func TestLevelIndexLookupAbsent(t *testing.T) {
	ds := &dataset.Dataset{Dims: 2, Points: [][]float64{{0.3, 0.1}, {0.9, 0.1}}}
	tr, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resolved := 0
	for _, ix := range LevelIndexesWithLinks(tr) {
		h := ix.Level
		for i := 0; i < ix.Len(); i++ {
			p := ix.PathInto(nil, i)
			for j := 0; j < tr.D; j++ {
				k := UpperLink(ix, i, j)
				if k == -1 {
					continue
				}
				if k < 0 || k >= ix.Len() {
					t.Fatalf("level %d cell (%d,%d) axis %d: link %d out of range", h, p.Coord(0), p.Coord(1), j, k)
				}
				resolved++
				q := ix.PathInto(nil, k)
				if h != 1 || j != 0 || p.Coord(0) != 0 || q.Coord(0) != 1 || q.Coord(1) != 0 {
					t.Errorf("level %d cell (%d,%d) axis %d: linked to (%d,%d), want absent (-1)",
						h, p.Coord(0), p.Coord(1), j, q.Coord(0), q.Coord(1))
				}
			}
		}
	}
	if resolved != 1 {
		t.Errorf("%d links resolved, want 1 (level 1: (0,0) → (1,0) along x)", resolved)
	}
}

// TestLevelCellCountsOneWalk pins the single-walk level counting, which
// sizes the level merge, against the level indexes' entry counts.
func TestLevelCellCountsOneWalk(t *testing.T) {
	tr, _ := indexTestTree(t, 4, 1500, 5, 3)
	counts := tr.levelCellCountsWalk()
	if len(counts) != tr.H {
		t.Fatalf("levelCellCountsWalk length %d, want %d", len(counts), tr.H)
	}
	for h, ix := range tr.EnsureLevelIndexes() {
		if counts[h+1] != ix.Len() {
			t.Errorf("level %d count %d, want %d", h+1, counts[h+1], ix.Len())
		}
	}
}

// TestMemoryBytesExcludesLevelIndexes is the footprint accounting
// test: with the arena layout, MemoryBytes is the tree's EXACT slab
// footprint and is disjoint from IndexMemoryBytes, so the pipeline's
// authoritative check (MemoryBytes + IndexMemoryBytes) never double
// counts. Materializing the indexes must not change the tree's own
// figure.
func TestMemoryBytesExcludesLevelIndexes(t *testing.T) {
	tr, _ := indexTestTree(t, 6, 2000, 4, 4)
	before := tr.MemoryBytes()
	tr.EnsureLevelIndexes()
	after := tr.MemoryBytes()
	idx := tr.IndexMemoryBytes()
	if idx == 0 {
		t.Fatal("IndexMemoryBytes() == 0 after EnsureLevelIndexes")
	}
	if after != before {
		t.Errorf("index build changed the tree's own MemoryBytes: %d -> %d", before, after)
	}
}

// TestLevelIndexDropsLinkRows pins the index's steady-state footprint:
// once EnsureLevelIndexes returns, no level keeps its upper link rows
// (the level below has read them, and the last level never records
// them), so IndexMemoryBytes counts the entries' columns (locs,
// parents, counts, refs and face sums) and the run offsets only.
func TestLevelIndexDropsLinkRows(t *testing.T) {
	tr, _ := indexTestTree(t, 6, 2000, 5, 7)
	for _, ix := range tr.EnsureLevelIndexes() {
		if ix.up != nil {
			t.Errorf("level %d kept %d link row words", ix.Level, len(ix.up))
		}
	}
}

// TestLevelIndexInvalidation pins that mutating the tree's cell set
// (InsertBatch, MergeFrom) drops the snapshots, so a rebuilt index sees
// the new cells.
func TestLevelIndexInvalidation(t *testing.T) {
	tr, _ := indexTestTree(t, 3, 500, 4, 5)
	n := tr.EnsureLevelIndexes()[2].Len()
	if err := tr.InsertBatch([][]float64{{0.9999, 0.0001, 0.5001}}); err != nil {
		t.Fatal(err)
	}
	if tr.IndexMemoryBytes() != 0 {
		t.Fatal("InsertBatch did not invalidate the level indexes")
	}
	rebuilt := tr.EnsureLevelIndexes()[2].Len()
	if rebuilt < n {
		t.Errorf("rebuilt index has %d entries, want >= %d", rebuilt, n)
	}
	other, _ := indexTestTree(t, 3, 500, 4, 6)
	if err := tr.MergeFrom(other); err != nil {
		t.Fatal(err)
	}
	if tr.IndexMemoryBytes() != 0 {
		t.Fatal("MergeFrom did not invalidate the level indexes")
	}
	if got, want := tr.EnsureLevelIndexes()[2].Len(), tr.levelCellCountsWalk()[3]; got != want {
		t.Errorf("post-merge index has %d entries, walk counts %d", got, want)
	}
}

// TestLevelIndexRepeatedLoc pins the face sums of a run that repeats a
// loc, which a trusted snapshot load does not rule out: each cell links
// to the first cell stored at its upper neighbor's loc, as one merge
// walk over the run finds it, and cells at one loc never link to each
// other. A four-cell run takes the pair-by-pair check, a six-cell run
// the split first.
func TestLevelIndexRepeatedLoc(t *testing.T) {
	for _, locs := range [][]uint64{{0, 1, 1, 3}, {0, 1, 1, 1, 3, 3}} {
		const d = 2
		c := Columns{Loc: []uint64{0}, N: []int32{0}, Used: []bool{false}, Level: []uint8{0}, Parent: []Ref{NilRef}, P: make([]int32, d)}
		eta := 0
		for i, loc := range locs {
			c.Loc = append(c.Loc, loc)
			c.N = append(c.N, int32(1)<<i)
			c.Used = append(c.Used, false)
			c.Level = append(c.Level, 1)
			c.Parent = append(c.Parent, rootRef)
			c.P = append(c.P, make([]int32, d)...)
			eta += 1 << i
		}
		tr, err := NewFromColumnsTrusted(d, 3, eta, c)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int64, len(locs))
		for a, la := range locs {
			for j := 0; j < d; j++ {
				if la>>j&1 == 1 {
					continue
				}
				for b, lb := range locs {
					if lb == la|1<<j {
						want[a] += 1 << b
						want[b] += 1 << a
						break
					}
				}
			}
		}
		ix := tr.EnsureLevelIndexes()[0]
		for i := range locs {
			if ix.PathInto(nil, i)[0] != locs[i] || ix.FaceSum(i) != want[i] {
				t.Fatalf("locs %v: entry %d at loc %d has face sum %d, want loc %d and %d",
					locs, i, ix.PathInto(nil, i)[0], ix.FaceSum(i), locs[i], want[i])
			}
		}
	}
}
