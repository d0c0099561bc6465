package ctree_test

import (
	"bytes"
	"math/rand"
	"testing"

	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/obs"
	"mrcc/internal/treeio"
)

// TestBuildSnapshotBytesAgree pins that a built tree's snapshot does
// not depend on how it was built: Workers {1, 2, 3, 8} and spilled
// builds of 1, 2 and 7 runs all save byte-identical treeio snapshots,
// and every one of them is in canonical order (a scan of its arena
// agrees), so `mrcc -save-tree` writes the same bytes on every host.
func TestBuildSnapshotBytesAgree(t *testing.T) {
	const n, d, H = 50_000, 6, 4
	rng := rand.New(rand.NewSource(6))
	ds := dataset.New(d, n)
	for i := 0; i < n; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		ds.Append(p)
	}
	rec := uint64(ctree.ExternalRecordBytes(d, H))
	var want []byte
	for _, c := range []struct {
		name string
		opt  ctree.BuildOptions
		runs int64
	}{
		{"workers=1", ctree.BuildOptions{Workers: 1}, 0},
		{"workers=2", ctree.BuildOptions{Workers: 2}, 0},
		{"workers=3", ctree.BuildOptions{Workers: 3}, 0},
		{"workers=8", ctree.BuildOptions{Workers: 8}, 0},
		{"spill/1run", ctree.BuildOptions{SpillDir: t.TempDir()}, 1},
		{"spill/2runs", ctree.BuildOptions{SpillDir: t.TempDir(), MemoryLimitBytes: 25_000 * rec}, 2},
		{"spill/7runs", ctree.BuildOptions{SpillDir: t.TempDir(), MemoryLimitBytes: 8192 * rec}, 7},
	} {
		col := obs.New()
		c.opt.Collector = col
		tr, err := ctree.Build(ds, H, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if runs := col.Finish().Counters.SpillRuns; runs != c.runs {
			t.Fatalf("%s: %d spill runs, want %d", c.name, runs, c.runs)
		}
		if !ctree.Canonical(tr) {
			t.Fatalf("%s: the built tree is not in canonical order", c.name)
		}
		var buf bytes.Buffer
		if _, err := treeio.Save(&buf, tr, treeio.Meta{}); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s: snapshot bytes differ from workers=1 (%d vs %d bytes)", c.name, buf.Len(), len(want))
		}
	}
}
