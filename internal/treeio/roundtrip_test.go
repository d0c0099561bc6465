package treeio

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
)

// layouts generate datasets with the point distributions that stress
// different tree shapes: uniform (wide fan-out), duplicate-heavy (long
// sorted-insertion runs, few cells), clumped (deep shared prefixes —
// the layout correlation clusters produce).
var layouts = map[string]func(rng *rand.Rand, d, n int) *dataset.Dataset{
	"uniform": func(rng *rand.Rand, d, n int) *dataset.Dataset {
		ds := dataset.New(d, n)
		for i := 0; i < n; i++ {
			p := make([]float64, d)
			for j := range p {
				p[j] = rng.Float64()
			}
			ds.Append(p)
		}
		return ds
	},
	"duplicates": func(rng *rand.Rand, d, n int) *dataset.Dataset {
		distinct := make([][]float64, 7)
		for i := range distinct {
			p := make([]float64, d)
			for j := range p {
				p[j] = rng.Float64()
			}
			distinct[i] = p
		}
		ds := dataset.New(d, n)
		for i := 0; i < n; i++ {
			ds.Append(distinct[rng.Intn(len(distinct))])
		}
		return ds
	},
	"clumped": func(rng *rand.Rand, d, n int) *dataset.Dataset {
		centers := make([][]float64, 3)
		for i := range centers {
			c := make([]float64, d)
			for j := range c {
				c[j] = 0.1 + 0.8*rng.Float64()
			}
			centers[i] = c
		}
		ds := dataset.New(d, n)
		for i := 0; i < n; i++ {
			c := centers[rng.Intn(len(centers))]
			p := make([]float64, d)
			for j := range p {
				v := c[j] + 0.01*rng.NormFloat64()
				if v < 0 {
					v = 0
				}
				if v >= 1 {
					v = 0.999999
				}
				p[j] = v
			}
			ds.Append(p)
		}
		return ds
	},
}

// buildTree builds a tree for the layout and marks a deterministic
// subset of cells used, so the used column round-trips a mixed
// pattern rather than all-false.
func buildTree(t *testing.T, layout string, d, n, H int, seed int64) *ctree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := layouts[layout](rng, d, n)
	tr, err := ctree.Build(ds, H, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var marked []ctree.Ref
	i := 0
	for h := 1; h <= H-1; h++ {
		tr.WalkLevel(h, func(p ctree.Path, r ctree.Ref) {
			if i%3 == 0 {
				marked = append(marked, r)
			}
			i++
		})
	}
	return withUsed(t, tr, marked)
}

// withUsed returns tr assembled again by ctree.NewFromColumns with its
// Used column set at the given cells, so that a snapshot suite saves a
// column that is not all clear; no run sets one.
func withUsed(t *testing.T, tr *ctree.Tree, cells []ctree.Ref) *ctree.Tree {
	t.Helper()
	c := tr.Columns()
	c.Used = make([]bool, c.Rows())
	for _, r := range cells {
		c.Used[r] = true
	}
	out, err := ctree.NewFromColumns(tr.D, tr.H, tr.Eta, c)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRoundTrip pins the snapshot contract over dims × levels ×
// layouts: a loaded tree is bit-identical to the saved one — same
// cells, same exact MemoryBytes, and re-saving it reproduces the
// original snapshot byte for byte — and behaves identically as a
// MergeFrom destination.
func TestRoundTrip(t *testing.T) {
	type shape struct {
		d, H, n int
	}
	shapes := []shape{{2, 4, 400}, {5, 3, 700}, {5, 6, 700}, {15, 4, 500}, {15, 6, 500}}
	for _, s := range shapes {
		for name := range layouts {
			s, name := s, name
			t.Run(name+"/"+testName(s.d, s.H), func(t *testing.T) {
				orig := buildTree(t, name, s.d, s.n, s.H, int64(s.d*100+s.H))

				var buf bytes.Buffer
				written, err := Save(&buf, orig, Meta{})
				if err != nil {
					t.Fatal(err)
				}
				if written != int64(buf.Len()) {
					t.Fatalf("Save reported %d bytes, wrote %d", written, buf.Len())
				}
				snap := append([]byte(nil), buf.Bytes()...)

				loaded, _, err := Load(bytes.NewReader(snap), int64(len(snap)), LoadOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !ctree.Equal(orig, loaded) {
					t.Fatal("loaded tree differs from the saved one")
				}
				if om, lm := orig.MemoryBytes(), loaded.MemoryBytes(); om != lm {
					t.Fatalf("MemoryBytes diverged: saved %d, loaded %d", om, lm)
				}

				// Same slab bytes: re-saving the loaded tree must reproduce
				// the snapshot exactly (cell order is preserved, not just the
				// cell set).
				var again bytes.Buffer
				if _, err := Save(&again, loaded, Meta{}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(snap, again.Bytes()) {
					t.Fatal("re-saving the loaded tree did not reproduce the snapshot bytes")
				}

				// A loaded tree is a full MergeFrom destination: merging a
				// second tree into it equals merging into the original.
				other := buildTree(t, name, s.d, s.n/2, s.H, int64(s.d*1000+s.H))
				if err := loaded.MergeFrom(other); err != nil {
					t.Fatal(err)
				}
				if err := orig.MergeFrom(other); err != nil {
					t.Fatal(err)
				}
				if !ctree.Equal(orig, loaded) {
					t.Fatal("merge into the loaded tree diverged from merge into the original")
				}
				if om, lm := orig.MemoryBytes(), loaded.MemoryBytes(); om != lm {
					t.Fatalf("post-merge MemoryBytes diverged: original %d, loaded %d", om, lm)
				}
			})
		}
	}
}

// TestCheckpointRoundTrip pins the trailer'd variant: SaveFile with a
// checkpoint Meta records the covered WAL sequence, LoadFile returns
// the same tree plus that exact Meta, and a plain snapshot of the same
// tree loads with the zero Meta while staying byte-identical to the
// pre-trailer format (the trailer'd image is exactly the plain image
// plus 16 bytes, with only the header's flags word and CRC differing).
func TestCheckpointRoundTrip(t *testing.T) {
	orig := buildTree(t, "clumped", 4, 300, 4, 99)
	for _, seq := range []uint64{0, 1, 42, 1 << 40} {
		path := filepath.Join(t.TempDir(), "ckpt.snap")
		written, err := SaveFile(path, orig, Meta{Seq: seq, HasSeq: true})
		if err != nil {
			t.Fatal(err)
		}
		loaded, m, err := LoadFile(path, LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !m.HasSeq || m.Seq != seq {
			t.Fatalf("LoadFile: seq=%d hasSeq=%v, want %d/true", m.Seq, m.HasSeq, seq)
		}
		if !ctree.Equal(orig, loaded) {
			t.Fatal("checkpoint-loaded tree differs from the saved one")
		}

		var plain bytes.Buffer
		if _, err := Save(&plain, orig, Meta{}); err != nil {
			t.Fatal(err)
		}
		if want := int64(plain.Len()) + TrailerSize; written != want {
			t.Fatalf("checkpoint snapshot is %d bytes, want plain size + trailer = %d", written, want)
		}
		// The plain format is untouched by the trailer feature.
		pt, pm, err := Load(bytes.NewReader(plain.Bytes()), int64(plain.Len()), LoadOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if pm != (Meta{}) {
			t.Fatalf("plain snapshot decoded as checkpoint: seq=%d hasSeq=%v", pm.Seq, pm.HasSeq)
		}
		if !ctree.Equal(orig, pt) {
			t.Fatal("plain snapshot via Load differs")
		}
	}
}

func testName(d, H int) string {
	return "d" + itoa(d) + "H" + itoa(H)
}

func itoa(v int) string {
	if v >= 10 {
		return string(rune('0'+v/10)) + string(rune('0'+v%10))
	}
	return string(rune('0' + v))
}

// TestSaveFileAtomic pins the file path: SaveFile writes the snapshot
// under the target name with no temporary left behind, and LoadFile
// round-trips it.
func TestSaveFileAtomic(t *testing.T) {
	orig := buildTree(t, "uniform", 5, 600, 4, 9)
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.snap")
	written, err := SaveFile(path, orig, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != written {
		t.Fatalf("SaveFile reported %d bytes, file holds %d", written, fi.Size())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("SaveFile left %d directory entries, want just the snapshot", len(entries))
	}
	loaded, _, err := LoadFile(path, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !ctree.Equal(orig, loaded) {
		t.Fatal("LoadFile round trip diverged")
	}
	// Overwriting an existing snapshot is atomic too.
	if _, err := SaveFile(path, loaded, Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFile(path, LoadOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadedTreeIsIndependent pins ownership: Load allocates fresh
// columns, so mutating the loaded tree never changes the saved one.
func TestLoadedTreeIsIndependent(t *testing.T) {
	orig := buildTree(t, "duplicates", 3, 200, 4, 21)
	var buf bytes.Buffer
	if _, err := Save(&buf, orig, Meta{}); err != nil {
		t.Fatal(err)
	}
	before := orig.MemoryBytes()
	loaded, _, err := Load(bytes.NewReader(buf.Bytes()), int64(len(buf.Bytes())), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.InsertBatch([][]float64{make([]float64, 3)}); err != nil {
		t.Fatal(err)
	}
	if orig.MemoryBytes() != before || orig.Eta != 200 {
		t.Fatal("mutating the loaded tree touched the original")
	}
	if loaded.Eta != 201 {
		t.Fatalf("loaded tree Eta = %d after insert, want 201", loaded.Eta)
	}
}
