package ctree

import (
	"testing"

	"mrcc/internal/dataset"
)

// shardDatasets splits ds into w contiguous shards (the partitioning
// the coordinator uses), dropping none.
func shardDatasets(t *testing.T, ds *dataset.Dataset, w int) []*dataset.Dataset {
	t.Helper()
	shards := make([]*dataset.Dataset, 0, w)
	n := len(ds.Points)
	for i := 0; i < w; i++ {
		lo, hi := i*n/w, (i+1)*n/w
		s := dataset.New(ds.Dims, hi-lo)
		for _, p := range ds.Points[lo:hi] {
			s.Append(p)
		}
		shards = append(shards, s)
	}
	return shards
}

func buildShardTrees(t *testing.T, shards []*dataset.Dataset, h int) []*Tree {
	t.Helper()
	trees := make([]*Tree, len(shards))
	for i, s := range shards {
		tr, err := Build(s, h, BuildOptions{})
		if err != nil {
			t.Fatalf("shard %d build: %v", i, err)
		}
		trees[i] = tr
	}
	return trees
}

// TestCanonicalizeMatchesSingleChunkBuild pins the canonical-order
// claim on a dataset smaller than one build checkpoint interval: Build
// creates cells in exactly the canonical DFS preorder, so a scan of its
// arena agrees, and the Union of its shards writes the identical arena
// layout, row for row.
func TestCanonicalizeMatchesSingleChunkBuild(t *testing.T) {
	ds := uniformDataset(t, 6, 5000, 42)
	if len(ds.Points) > buildReportEvery {
		t.Fatalf("test dataset must fit one build chunk (%d points)", buildReportEvery)
	}
	serial, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.scanCanonical() {
		t.Fatal("single-chunk build not recognized as canonical")
	}
	canon, err := Union(buildShardTrees(t, shardDatasets(t, ds, 4), 4)...)
	if err != nil {
		t.Fatal(err)
	}
	a, b := serial.Columns(), canon.Columns()
	if a.Rows() != b.Rows() {
		t.Fatalf("row counts differ: %d vs %d", a.Rows(), b.Rows())
	}
	for r := 0; r < a.Rows(); r++ {
		if a.Loc[r] != b.Loc[r] || a.N[r] != b.N[r] || a.Used[r] != b.Used[r] ||
			a.Level[r] != b.Level[r] || a.Parent[r] != b.Parent[r] {
			t.Fatalf("row %d differs between single-chunk build and the union of its shards", r)
		}
	}
	for i := range a.P {
		if a.P[i] != b.P[i] {
			t.Fatalf("half-space slab differs at %d", i)
		}
	}
	if canon.MemoryBytes() != serial.MemoryBytes() {
		t.Fatalf("union MemoryBytes %d != serial %d", canon.MemoryBytes(), serial.MemoryBytes())
	}
}

// TestCanonicalizeMultiChunk checks that a tree fed by 1000-point
// InsertBatch calls, each of which unites the tree with the batch's
// own tree, and the Union of shard trees of the same dataset land on
// the same arena layout — the layout Build produces directly.
func TestCanonicalizeMultiChunk(t *testing.T) {
	ds := uniformDataset(t, 4, 3*buildReportEvery+100, 7)
	serial := New(4, 4)
	for lo := 0; lo < ds.Len(); lo += 1000 {
		if err := serial.InsertBatch(ds.Points[lo:min(lo+1000, ds.Len())]); err != nil {
			t.Fatal(err)
		}
	}
	if !serial.scanCanonical() {
		t.Fatal("a tree fed in 1000-point batches is not in canonical order")
	}
	built, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Union(buildShardTrees(t, shardDatasets(t, ds, 3), 4)...)
	if err != nil {
		t.Fatal(err)
	}
	if !sameColumns(serial.Columns(), cb.Columns()) {
		t.Fatal("InsertBatch tree and union differ")
	}
	if !sameColumns(serial.Columns(), built.Columns()) {
		t.Fatal("canonical layout differs from Build's")
	}
	if serial.MemoryBytes() != stateBytes(serial.D, int(serial.CellCount())+1) || serial.MemoryBytes() != built.MemoryBytes() {
		t.Fatalf("InsertBatch tree reports %d bytes, want the written-once footprint %d", serial.MemoryBytes(), built.MemoryBytes())
	}
}

// TestCanonicalChecksBothRules pins the two rules of scanCanonical on
// one-dimensional first-touch trees counted a point at a time by the
// Insert oracle. Inserting 0.3 then 0.1 keeps the cells in DFS preorder
// but lists the second level's siblings in descending loc order, so
// only the sibling rule rejects the tree; inserting 0.1, 0.6 and then
// 0.3 creates a second-level cell under a first-level cell that is no
// longer the latest, at a loc above its level's latest, so only the
// preorder rule rejects it. Both column loaders must rewrite both into
// Build's columns, and Build's own tree must pass.
func TestCanonicalChecksBothRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		pts  []float64
	}{
		{"siblings descending", []float64{0.3, 0.1}},
		{"child of an earlier parent", []float64{0.1, 0.6, 0.3}},
	} {
		grown := New(1, 4)
		var pts [][]float64
		for _, v := range tc.pts {
			if err := grown.Insert([]float64{v}); err != nil {
				t.Fatal(err)
			}
			pts = append(pts, []float64{v})
		}
		if grown.scanCanonical() {
			t.Errorf("%s: scanCanonical accepts a tree out of canonical order", tc.name)
		}
		built := sweepBuild(t, 1, 4, pts)
		if !built.scanCanonical() {
			t.Errorf("%s: scanCanonical rejects Build's tree", tc.name)
		}
		for _, load := range []func(d, h, eta int, c Columns) (*Tree, error){NewFromColumns, NewFromColumnsTrusted} {
			c, err := load(grown.D, grown.H, grown.Eta, grown.Columns())
			if err != nil {
				t.Fatal(err)
			}
			if !sameColumns(c.Columns(), built.Columns()) {
				t.Errorf("%s: the loader did not rewrite the tree into Build's columns", tc.name)
			}
		}
	}
}

func TestNewFromColumnsTrustedMatchesValidated(t *testing.T) {
	ds := uniformDataset(t, 5, 2500, 21)
	tr, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Columns()
	clone := func() Columns {
		return Columns{
			Loc:    append([]uint64(nil), c.Loc...),
			N:      append([]int32(nil), c.N...),
			Used:   append([]bool(nil), c.Used...),
			Level:  append([]uint8(nil), c.Level...),
			Parent: append([]Ref(nil), c.Parent...),
			P:      append([]int32(nil), c.P...),
		}
	}
	validated, err := NewFromColumns(tr.D, tr.H, tr.Eta, clone())
	if err != nil {
		t.Fatal(err)
	}
	trusted, err := NewFromColumnsTrusted(tr.D, tr.H, tr.Eta, clone())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(validated, trusted) || !Equal(tr, trusted) {
		t.Fatal("trusted assembly differs from validated assembly")
	}
	if validated.MemoryBytes() != trusted.MemoryBytes() {
		t.Fatal("trusted assembly changed MemoryBytes")
	}
	// The safety checks stay on: broken linkage is still refused.
	bad := clone()
	bad.Parent[len(bad.Parent)-1] = Ref(len(bad.Parent)) // forward reference
	if _, err := NewFromColumnsTrusted(tr.D, tr.H, tr.Eta, bad); err == nil {
		t.Fatal("forward parent ref accepted by trusted assembly")
	}
}
