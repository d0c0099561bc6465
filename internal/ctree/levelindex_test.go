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

// TestLevelIndexMatchesWalk pins the flat snapshot against the tree
// walk it replaces: same cells in the same deterministic order, paths,
// O(1) coords and bounds identical to the Path methods, parents equal
// to ParentCell, and Lookup the inverse of PathOf.
func TestLevelIndexMatchesWalk(t *testing.T) {
	tr, _ := indexTestTree(t, 6, 3000, 5, 1)
	for h := 1; h <= tr.H-1; h++ {
		ix := tr.LevelIndex(h)
		if ix == nil {
			t.Fatalf("no index for level %d", h)
		}
		if ix.Len() != tr.LevelCellCount(h) {
			t.Fatalf("level %d: index has %d entries, walk counts %d", h, ix.Len(), tr.LevelCellCount(h))
		}
		i := 0
		tr.WalkLevel(h, func(p Path, r Ref) {
			if ix.Ref(i) != r {
				t.Fatalf("level %d entry %d: cell differs from walk order", h, i)
			}
			if ix.N(i) != tr.N(r) || ix.Used(i) != tr.Used(r) {
				t.Fatalf("level %d entry %d: N/Used differ from the arena", h, i)
			}
			if ix.PathOf(i).Compare(p) != 0 {
				t.Fatalf("level %d entry %d: path %v, walk %v", h, i, ix.PathOf(i), p)
			}
			for j := 0; j < tr.D; j++ {
				if ix.Coord(i, j) != p.Coord(j) {
					t.Fatalf("level %d entry %d axis %d: coord %d, want %d", h, i, j, ix.Coord(i, j), p.Coord(j))
				}
				lo, hi := ix.Bounds(i, j)
				wl, wh := p.Bounds(j)
				if lo != wl || hi != wh {
					t.Fatalf("level %d entry %d axis %d: bounds (%v,%v), want (%v,%v)", h, i, j, lo, hi, wl, wh)
				}
			}
			if got, want := ix.Parent(i), tr.ParentCell(p); got != want {
				t.Fatalf("level %d entry %d: parent %d, want %d", h, i, got, want)
			}
			if got := ix.Lookup(p); got != i {
				t.Fatalf("level %d: Lookup(%v) = %d, want %d", h, p, got, i)
			}
			i++
		})
	}
}

// TestLevelIndexNeighborLookup pins NeighborLookup against the
// Path.Neighbor + CellAt reference for every entry, axis and side.
func TestLevelIndexNeighborLookup(t *testing.T) {
	tr, _ := indexTestTree(t, 5, 2000, 4, 2)
	for h := 1; h <= tr.H-1; h++ {
		ix := tr.LevelIndex(h)
		buf := make(Path, 0, h)
		for i := 0; i < ix.Len(); i++ {
			p := ix.PathOf(i)
			for j := 0; j < tr.D; j++ {
				for _, upper := range []bool{false, true} {
					want := NilRef
					if np, ok := p.Neighbor(j, upper); ok {
						want = tr.CellAt(np)
					}
					got := NilRef
					var ni int
					ni, buf = ix.NeighborLookup(i, j, upper, buf)
					if ni >= 0 {
						got = ix.Ref(ni)
					}
					if got != want {
						t.Fatalf("level %d entry %d axis %d upper=%v: neighbor %d, want %d", h, i, j, upper, got, want)
					}
				}
			}
		}
	}
}

// TestLevelIndexLookupAbsent pins the miss path: paths addressing
// unstored cells must return -1, not a false positive.
func TestLevelIndexLookupAbsent(t *testing.T) {
	ds := &dataset.Dataset{Dims: 2, Points: [][]float64{{0.1, 0.1}, {0.12, 0.11}}}
	tr, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := tr.LevelIndex(2)
	if got := ix.Lookup(Path{3, 3}); got != -1 {
		t.Errorf("Lookup(absent) = %d, want -1", got)
	}
	if got := ix.Lookup(Path{0}); got != -1 {
		t.Errorf("Lookup(wrong level) = %d, want -1", got)
	}
}

// TestLevelCellCountsOneWalk pins the single-walk level counting
// against the per-level walks it replaces, both before and after the
// indexes exist.
func TestLevelCellCountsOneWalk(t *testing.T) {
	tr, _ := indexTestTree(t, 4, 1500, 5, 3)
	for _, phase := range []string{"pre-index", "post-index"} {
		counts := tr.LevelCellCounts()
		if len(counts) != tr.H {
			t.Fatalf("%s: LevelCellCounts length %d, want %d", phase, len(counts), tr.H)
		}
		for h := 1; h <= tr.H-1; h++ {
			if counts[h] != tr.LevelCellCount(h) {
				t.Errorf("%s: level %d count %d, want %d", phase, h, counts[h], tr.LevelCellCount(h))
			}
		}
		tr.EnsureLevelIndexes()
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

// TestLevelIndexInvalidation pins that mutating the tree's cell set
// (Insert, MergeFrom) drops the snapshots, so a rebuilt index sees the
// new cells.
func TestLevelIndexInvalidation(t *testing.T) {
	tr, _ := indexTestTree(t, 3, 500, 4, 5)
	n := tr.LevelIndex(3).Len()
	if err := tr.Insert([]float64{0.9999, 0.0001, 0.5001}); err != nil {
		t.Fatal(err)
	}
	if tr.IndexMemoryBytes() != 0 {
		t.Fatal("Insert did not invalidate the level indexes")
	}
	rebuilt := tr.LevelIndex(3).Len()
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
	if got := tr.LevelIndex(3).Len(); got != tr.LevelCellCount(3) {
		t.Errorf("post-merge index has %d entries, walk counts %d", got, tr.LevelCellCount(3))
	}
}
