package ctree

import (
	"math/rand"
	"testing"

	"mrcc/internal/dataset"
)

// TestMergeForcesArenaGrowMidWalk merges a large shard into a tree
// whose arena is still at (or near) its initial capacity. The merge
// writes a fresh arena at its final size instead of growing the
// destination in place, so the merged tree must equal the whole build
// cell-for-cell and report the whole build's MemoryBytes exactly.
func TestMergeForcesArenaGrowMidWalk(t *testing.T) {
	d, h := 6, 4
	small := uniformDataset(t, d, 8, 41)
	big := uniformDataset(t, d, 4000, 42)
	dst, err := Build(small, h, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := Build(big, h, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.MergeFrom(src); err != nil {
		t.Fatal(err)
	}
	all := &dataset.Dataset{Dims: d, Points: append(append([][]float64{}, small.Points...), big.Points...)}
	whole, err := Build(all, h, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !treesEqual(t, whole, dst) {
		t.Fatal("merge into a small arena diverged from the whole build")
	}
	if dst.MemoryBytes() != whole.MemoryBytes() {
		t.Fatalf("merge into a small arena: MemoryBytes %d, whole build %d", dst.MemoryBytes(), whole.MemoryBytes())
	}
}

// TestMergeSingleCellShard merges a shard holding exactly one stored
// cell chain (one point) into a populated tree — the smallest non-empty
// shard a tree merge can see.
func TestMergeSingleCellShard(t *testing.T) {
	ds := uniformDataset(t, 4, 500, 43)
	one := &dataset.Dataset{Dims: 4, Points: [][]float64{{0.9, 0.1, 0.5, 0.3}}}
	dst, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shard, err := Build(one, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := shard.CellCount(); got != int64(shard.H-1) {
		t.Fatalf("one-point shard stores %d cells, want one per stored level (%d)", got, shard.H-1)
	}
	if err := dst.MergeFrom(shard); err != nil {
		t.Fatal(err)
	}
	all := &dataset.Dataset{Dims: 4, Points: append(append([][]float64{}, ds.Points...), one.Points...)}
	whole, err := Build(all, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !treesEqual(t, whole, dst) {
		t.Fatal("single-cell shard merge diverged from the whole build")
	}
}

// TestBatchBuildEqualsPerPointInsert pins InsertBatch's count loop
// (countMerged) against the per-point descent on layouts chosen to
// stress its run detection: heavy duplicates, dense single-cell
// clumps, and a random mix — including a duplicate run longer than the
// loop's buildReportEvery-record (8192) leaf buffer, which the loop
// counts in more than one descent.
func TestBatchBuildEqualsPerPointInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	d := 5
	var pts [][]float64
	// Random spread.
	for i := 0; i < 3000; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts = append(pts, p)
	}
	// A duplicate block longer than the buildReportEvery leaf buffer:
	// identical points land in one run per full buffer.
	dup := []float64{0.31, 0.62, 0.93, 0.12, 0.44}
	for len(pts) < buildReportEvery+2000 {
		pts = append(pts, dup)
	}
	// A dense clump inside one deep cell (distinct but co-located).
	for i := 0; i < 500; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = 0.7001 + rng.Float64()*1e-6
		}
		pts = append(pts, p)
	}
	ds := &dataset.Dataset{Dims: d, Points: pts}
	batch := New(d, 5)
	if err := batch.InsertBatch(ds.Points); err != nil {
		t.Fatal(err)
	}
	perPoint := New(d, 5)
	for i, p := range ds.Points {
		if err := perPoint.Insert(p); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
	}
	if !treesEqual(t, batch, perPoint) {
		t.Fatal("sorted batch insertion diverged from per-point insertion")
	}
	runs, runPoints := batch.BatchRuns()
	if runPoints != int64(len(pts)) {
		t.Fatalf("BatchRuns covered %d points, want %d (no point may bypass the batch path)", runPoints, len(pts))
	}
	if runs >= runPoints {
		t.Fatalf("runs=%d points=%d: duplicate-heavy layout produced no batching at all", runs, runPoints)
	}
}

// TestBatchRunsOnIdenticalPoints pins the batch accounting on the
// degenerate all-identical dataset: the merge counts one run per
// buffer of buildReportEvery equal-path records.
func TestBatchRunsOnIdenticalPoints(t *testing.T) {
	n := 2*buildReportEvery + 100
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{0.25, 0.75, 0.5}
	}
	tr, err := Build(&dataset.Dataset{Dims: 3, Points: pts}, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := int64((n + buildReportEvery - 1) / buildReportEvery)
	runs, runPoints := tr.BatchRuns()
	if runs != wantRuns || runPoints != int64(n) {
		t.Fatalf("BatchRuns = (%d, %d), want (%d, %d)", runs, runPoints, wantRuns, n)
	}
	if tr.Eta != n {
		t.Fatalf("Eta = %d, want %d", tr.Eta, n)
	}
	if got := tr.CellCount(); got != int64(tr.H-1) {
		t.Fatalf("identical points stored %d cells, want %d", got, tr.H-1)
	}
}

// TestWideFanOutUsesChildTable drives a node past the inline-sibling
// threshold (8 children) so lookups go through the open-addressing
// child table, and pins both the structure (every walked path resolves
// through CellAt) and equality with per-point insertion.
func TestWideFanOutUsesChildTable(t *testing.T) {
	d := 5 // the root can fan out to 2^5 = 32 children
	rng := rand.New(rand.NewSource(45))
	var pts [][]float64
	// One point per level-1 cell: all 32 root children exist.
	for loc := 0; loc < 1<<d; loc++ {
		p := make([]float64, d)
		for j := 0; j < d; j++ {
			base := 0.0
			if (loc>>j)&1 == 1 {
				base = 0.5
			}
			p[j] = base + 0.25 + rng.Float64()*0.1
		}
		pts = append(pts, p)
	}
	// Plus random filler to widen deeper levels too.
	for i := 0; i < 2000; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts = append(pts, p)
	}
	ds := &dataset.Dataset{Dims: d, Points: pts}
	tr, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.levelCellCountsWalk()[1]; got != 1<<d {
		t.Fatalf("level 1 stores %d cells, want the full fan-out %d", got, 1<<d)
	}
	wide := false
	tr.WalkLevel(1, func(p Path, c Ref) {
		if tr.childCount[c] > inlineChildren {
			wide = true
		}
	})
	if !wide && 1<<d <= inlineChildren {
		t.Fatal("test layout never exceeded the inline-children threshold")
	}
	// Every stored path must resolve through the (table-backed) lookup.
	for h := 1; h <= tr.H-1; h++ {
		tr.WalkLevel(h, func(p Path, c Ref) {
			if got := tr.CellAt(p); got != c {
				t.Fatalf("level %d: CellAt(%v) = %d, want %d", h, p, got, c)
			}
		})
	}
	perPoint := New(d, 4)
	for _, p := range ds.Points {
		if err := perPoint.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if !treesEqual(t, tr, perPoint) {
		t.Fatal("wide fan-out batch build diverged from per-point insertion")
	}
}
