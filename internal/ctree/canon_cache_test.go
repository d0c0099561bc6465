package ctree_test

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/treeio"
)

// TestCanonicalVerdictFollowsMutation pins the cached canonical-order
// verdict to a fresh scan after every entry point that changes or
// produces a tree's cells: Insert, InsertBatch into an empty and a
// populated tree, MergeFrom, trusted and untrusted treeio loads, Union,
// Canonicalize and Clone. Each mutated tree has its verdict cached
// first, so a cache the mutation failed to drop answers stale.
func TestCanonicalVerdictFollowsMutation(t *testing.T) {
	const d, H = 4, 5
	rng := rand.New(rand.NewSource(29))
	points := func(n int) [][]float64 {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, d)
			for j := range pts[i] {
				pts[i][j] = rng.Float64()
			}
		}
		return pts
	}
	build := func() *ctree.Tree {
		tr, err := ctree.Build(&dataset.Dataset{Dims: d, Points: points(3000)}, H, ctree.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	firstTouch := func() *ctree.Tree {
		tr := ctree.New(d, H)
		for i := 0; i < 3; i++ {
			if err := tr.InsertBatch(points(500)); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	check := func(name string, tr *ctree.Tree, want bool) {
		t.Helper()
		cached, scanned := ctree.CanonicalVerdicts(tr)
		if cached != scanned || scanned != want {
			t.Fatalf("%s: cached verdict %v, fresh scan %v, want %v", name, cached, scanned, want)
		}
	}
	prime := func(tr *ctree.Tree) *ctree.Tree {
		ctree.CanonicalVerdicts(tr)
		return tr
	}

	tr := prime(build())
	if err := tr.Insert(points(1)[0]); err != nil {
		t.Fatal(err)
	}
	check("Insert into a build", tr, false)

	empty := prime(ctree.New(d, H))
	if err := empty.InsertBatch(points(2000)); err != nil {
		t.Fatal(err)
	}
	check("InsertBatch into an empty tree", empty, true)
	if err := prime(empty).InsertBatch(points(2000)); err != nil {
		t.Fatal(err)
	}
	check("InsertBatch into a populated tree", empty, false)

	ft := prime(firstTouch())
	if err := ft.MergeFrom(build()); err != nil {
		t.Fatal(err)
	}
	check("MergeFrom into a first-touch tree", ft, true)

	ft = prime(firstTouch())
	check("Clone of a first-touch tree", ft.Clone(), false)
	u, err := ctree.Union(ft)
	if err != nil {
		t.Fatal(err)
	}
	check("Union of a first-touch tree", u, true)
	c, err := ctree.Canonicalize(ft)
	if err != nil {
		t.Fatal(err)
	}
	check("Canonicalize of a first-touch tree", c, true)
	check("the first-touch tree after Canonicalize", ft, false)

	for _, src := range []*ctree.Tree{build(), firstTouch()} {
		want, _ := ctree.CanonicalVerdicts(src)
		var buf bytes.Buffer
		if _, err := treeio.Save(&buf, src, treeio.Meta{}); err != nil {
			t.Fatal(err)
		}
		for _, trust := range []bool{false, true} {
			loaded, _, err := treeio.Load(bytes.NewReader(buf.Bytes()), int64(buf.Len()), treeio.LoadOptions{TrustChecksums: trust})
			if err != nil {
				t.Fatal(err)
			}
			check("treeio load", loaded, want)
			if err := prime(loaded).InsertBatch(points(200)); err != nil {
				t.Fatal(err)
			}
			check("InsertBatch into a loaded tree", loaded, false)
		}
	}
}

// TestCanonicalVerdictConcurrentReaders has several goroutines read one
// unchanging tree's canonical verdict at once, through the level merge
// of UnionLevelIndexes, as a service pass and a snapshot do with the
// aging tree: under -race the cached verdict must be free of data
// races, and every reader must see the scan's answer.
func TestCanonicalVerdictConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := make([][]float64, 4000)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	shared := ctree.New(3, 5)
	if err := shared.InsertBatch(pts[:2000]); err != nil {
		t.Fatal(err)
	}
	if err := shared.InsertBatch(pts[2000:]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			other := ctree.New(3, 5)
			if err := other.InsertBatch(pts[:100]); err != nil {
				t.Error(err)
				return
			}
			if _, err := ctree.UnionLevelIndexes(shared, other); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if cached, scanned := ctree.CanonicalVerdicts(shared); cached != scanned {
		t.Fatalf("cached verdict %v, fresh scan %v", cached, scanned)
	}
}
