package treeio

import (
	"os"
	"testing"

	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
)

// goldenPath is the committed version-1 snapshot the compatibility
// test loads. Regenerate with:
//
//	TREEIO_WRITE_GOLDEN=1 go test ./internal/treeio -run TestGolden
//
// but ONLY as part of a conscious format-version bump — the whole
// point of the golden file is that accidental layout changes fail
// TestGoldenCompat instead of silently orphaning old snapshots.
const goldenPath = "testdata/golden_v1.snap"

// goldenProbes are three cells of the golden tree pinned by value:
// one per stored level, counts and level-1 half-space counters chosen
// from the clusters goldenDataset hardcodes.
var goldenProbes = []struct {
	path ctree.Path
	n    int32
	p    [3]int32
	used bool
}{
	{path: ctree.Path{0}, n: goldenProbe1N, p: goldenProbe1P, used: true},
	{path: ctree.Path{7, 7}, n: goldenProbe2N, p: goldenProbe2P, used: true},
	{path: ctree.Path{0, 4, 2}, n: goldenProbe3N, p: goldenProbe3P, used: true},
}

// goldenDataset is a fixed 40-point, 3-dimensional dataset: three
// duplicate clusters (so the golden tree has heavy cells) plus a
// deterministic spread (so every level has singletons).
func goldenDataset() *dataset.Dataset {
	ds := dataset.New(3, 40)
	appendN := func(n int, p []float64) {
		for i := 0; i < n; i++ {
			ds.Append(p)
		}
	}
	appendN(10, []float64{0.10, 0.20, 0.30})
	appendN(8, []float64{0.90, 0.85, 0.95})
	appendN(7, []float64{0.50, 0.10, 0.70})
	frac := func(v float64) float64 { return v - float64(int(v)) }
	for i := 0; i < 15; i++ {
		ds.Append([]float64{
			frac(0.07*float64(i) + 0.01),
			frac(0.13*float64(i) + 0.02),
			frac(0.29*float64(i) + 0.03),
		})
	}
	return ds
}

// goldenTree builds the tree the golden snapshot stores: the fixed
// dataset at H = 4 with the three probe cells marked used.
func goldenTree(t *testing.T) *ctree.Tree {
	t.Helper()
	tr, err := ctree.Build(goldenDataset(), 4, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var probes []ctree.Ref
	for _, pr := range goldenProbes {
		r := tr.CellAt(pr.path)
		if r == ctree.NilRef {
			t.Fatalf("golden probe cell %v is not stored", pr.path)
		}
		probes = append(probes, r)
	}
	return withUsed(t, tr, probes)
}

// Pinned facts about the golden tree. These are properties of the
// committed FILE: if TestGoldenCompat fails after a treeio change, the
// change broke version-1 compatibility and must bump Version (and
// regenerate the golden under a new name) instead.
const (
	goldenEta       = 40
	goldenCellCount = 41
)

var (
	goldenProbe1P = [3]int32{12, 12, 1}
	goldenProbe2P = [3]int32{0, 8, 0}
	goldenProbe3P = [3]int32{0, 1, 10}
)

const (
	goldenProbe1N = 12
	goldenProbe2N = 8
	goldenProbe3N = 11
)

// TestGoldenWrite regenerates the committed snapshot; it only runs
// with TREEIO_WRITE_GOLDEN set (see goldenPath).
func TestGoldenWrite(t *testing.T) {
	if os.Getenv("TREEIO_WRITE_GOLDEN") == "" {
		t.Skip("set TREEIO_WRITE_GOLDEN=1 to regenerate the golden snapshot")
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	written, err := SaveFile(goldenPath, goldenTree(t), Meta{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d bytes)", goldenPath, written)
}

// TestGoldenCompat loads the committed version-1 snapshot and pins its
// geometry, cell count, root point count and three probe cells — so a
// layout change cannot land without consciously bumping the format
// version.
func TestGoldenCompat(t *testing.T) {
	tr, _, err := LoadFile(goldenPath, LoadOptions{})
	if err != nil {
		t.Fatalf("loading the committed golden snapshot: %v", err)
	}
	if tr.D != 3 || tr.H != 4 {
		t.Fatalf("golden geometry d=%d H=%d, want d=3 H=4", tr.D, tr.H)
	}
	if tr.Eta != goldenEta {
		t.Fatalf("golden root point count %d, want %d", tr.Eta, goldenEta)
	}
	if cc := tr.CellCount(); cc != goldenCellCount {
		t.Fatalf("golden cell count %d, want %d", cc, goldenCellCount)
	}
	for _, pr := range goldenProbes {
		r := tr.CellAt(pr.path)
		if r == ctree.NilRef {
			t.Fatalf("probe cell %v missing from the golden tree", pr.path)
		}
		if tr.N(r) != pr.n {
			t.Errorf("probe cell %v count %d, want %d", pr.path, tr.N(r), pr.n)
		}
		if tr.Used(r) != pr.used {
			t.Errorf("probe cell %v used=%v, want %v", pr.path, tr.Used(r), pr.used)
		}
		for j := 0; j < 3; j++ {
			if got := tr.P(r, j); got != pr.p[j] {
				t.Errorf("probe cell %v P[%d] = %d, want %d", pr.path, j, got, pr.p[j])
			}
		}
	}
	// The golden snapshot must also match a fresh build of the same
	// dataset — format compatibility AND build determinism in one pin.
	if !ctree.Equal(tr, goldenTree(t)) {
		t.Fatal("golden snapshot diverged from a fresh build of the golden dataset")
	}
}
