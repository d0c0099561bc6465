package ctree_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/treeio"
)

// checkUpperLinks pins the upper face neighbor links of the index over
// srcs — kept for the check by ctree.LevelIndexesWithLinks, since the
// production build drops them once read — against the reference
// neighbor resolution, Path.NeighborInto + CellAt on every source, for
// every entry and axis of every stored level: a link must lead to the
// entry at the neighbor's path, and exist exactly when some source
// stores that cell. It returns how many links resolved to a stored cell
// on each level (links[h]) and how many were absent in total.
func checkUpperLinks(t *testing.T, name string, srcs []*ctree.Tree) (links []int, absent int) {
	t.Helper()
	links = make([]int, srcs[0].H)
	var buf ctree.Path
	for _, ix := range ctree.LevelIndexesWithLinks(srcs...) {
		h := ix.Level
		for i := 0; i < ix.Len(); i++ {
			p := ix.PathInto(nil, i)
			for j := 0; j < srcs[0].D; j++ {
				stored := false
				np, ok := p.NeighborInto(buf, j, true)
				if ok {
					buf = np
					for _, tr := range srcs {
						stored = stored || tr.CellAt(np) != ctree.NilRef
					}
				}
				k := ctree.UpperLink(ix, i, j)
				if k >= 0 {
					links[h]++
				} else {
					absent++
				}
				if (k >= 0) != stored || k >= 0 && ix.PathInto(nil, k).Compare(np) != 0 {
					t.Fatalf("%s: level %d entry %d axis %d: upper link %d, neighbor stored=%v at %v",
						name, h, i, j, k, stored, np)
				}
			}
		}
	}
	return links, absent
}

// linkPoints returns n uniform points plus, when shifted is set, a
// layout rich in face neighbors at every dimensionality: a base point
// in the middle half of the cube and copies of it moved by one cell
// side along a single axis, at levels 1, 2 and fine. Uniform points in
// high dimensions almost never share a face; the shifted copies do, at
// all three levels, and the random base puts about half of those pairs
// across a parent boundary.
func linkPoints(d, fine, n int, shifted bool, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	var pts [][]float64
	for i := 0; i < n; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts = append(pts, p)
	}
	if !shifted {
		return pts
	}
	base := make([]float64, d)
	for j := range base {
		base[j] = 0.25 + 0.5*rng.Float64()
	}
	pts = append(pts, base)
	for _, h := range []int{1, 2, fine} {
		side := ctree.SideLen(h)
		for j := 0; j < d; j++ {
			q := append([]float64(nil), base...)
			if q[j] += side; q[j] >= 1 {
				q[j] = base[j] - side
			}
			pts = append(pts, q)
		}
	}
	return pts
}

// TestLevelIndexNeighborLookup pins the upper face neighbor links against
// the Path.NeighborInto + CellAt oracle on every producer of the
// indexes the β-search reads: Build at Workers 1 and 8, a tree fed by
// InsertBatch alone, a window tree (two such trees merged by MergeFrom),
// a treeio save/load round trip of that window tree, the index over the
// two trees themselves, and the index over the streaming service's
// window as a pass reads it (its active runs and its aging tree) —
// over d ∈ {1, 2, 15, 63} and H ∈ {3, 4, MaxLevels}, with uniform and
// neighbor-rich layouts. It also checks that the oracle saw both
// outcomes: absent links (the upper grid edge always has them) and, on
// the neighbor-rich layout, resolved ones at levels 1, 2 and the finest
// shifted level.
func TestLevelIndexNeighborLookup(t *testing.T) {
	for _, d := range []int{1, 2, 15, 63} {
		for _, H := range []int{3, 4, ctree.MaxLevels} {
			for _, shifted := range []bool{false, true} {
				n := 300
				if H == ctree.MaxLevels || d == 63 {
					n = 60
				}
				// A one-cell shift below 2^-50 would round away in the
				// float64 coordinate of a point near the middle of the cube.
				fine := min(H-1, 50)
				name := fmt.Sprintf("d%d_H%d_shifted=%v", d, H, shifted)
				t.Run(name, func(t *testing.T) {
					pts := linkPoints(d, fine, n, shifted, int64(d*100+H))
					for name, srcs := range linkProducers(t, d, H, pts) {
						links, absent := checkUpperLinks(t, name, srcs)
						if absent == 0 {
							t.Errorf("%s: no absent link, the grid edge was never reached", name)
						}
						for _, h := range []int{1, 2, fine} {
							if shifted && links[h] == 0 {
								t.Errorf("%s: neighbor-rich layout resolved no link at level %d", name, h)
							}
						}
					}
				})
			}
		}
	}
}

// linkProducers builds pts through every producer TestLevelIndexNeighborLookup
// covers, keyed by a readable name: each producer is the list of trees
// one index covers, a single tree except for the windows'.
func linkProducers(t *testing.T, d, H int, pts [][]float64) map[string][]*ctree.Tree {
	t.Helper()
	ds := dataset.New(d, len(pts))
	for _, p := range pts {
		ds.Append(p)
	}
	out := map[string][]*ctree.Tree{}
	for _, w := range []int{1, 8} {
		tr, err := ctree.Build(ds, H, ctree.BuildOptions{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("build/workers=%d", w)] = []*ctree.Tree{tr}
	}
	// The whole stream fed by InsertBatch alone.
	fed := ctree.New(d, H)
	for i := 0; i < len(pts); i += 17 {
		if err := fed.InsertBatch(pts[i:min(i+17, len(pts))]); err != nil {
			t.Fatal(err)
		}
	}
	out["insertbatch"] = []*ctree.Tree{fed}
	// A window: the older half of the stream in one tree, the newer half
	// in another, each fed batch by batch.
	aging, active := ctree.New(d, H), ctree.New(d, H)
	half := len(pts) / 2
	for i := 0; i < len(pts); i += 17 {
		end := min(i+17, len(pts))
		dst := aging
		if i >= half {
			dst = active
		}
		if err := dst.InsertBatch(pts[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	merged := aging.Clone()
	if err := merged.MergeFrom(active); err != nil {
		t.Fatal(err)
	}
	out["window/clone+merge"] = []*ctree.Tree{merged}
	var buf bytes.Buffer
	if _, err := treeio.Save(&buf, merged, treeio.Meta{}); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := treeio.Load(bytes.NewReader(buf.Bytes()), int64(len(buf.Bytes())), treeio.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out["window/treeio-roundtrip"] = []*ctree.Tree{loaded}
	out["window/two-tree"] = []*ctree.Tree{active, aging}
	// The service's window: the newer half in its active runs, the older
	// half in the aging tree a pass unites from its retired runs.
	runs := ctree.AddBatches(t, pts[half:], d, H, 17)
	united, err := ctree.Union(ctree.AddBatches(t, pts[:half], d, H, 17)...)
	if err != nil {
		t.Fatal(err)
	}
	out["window/runs"] = append(runs, united)
	return out
}

// TestLevelIndexMatchesWalk pins the level index's path-order contract
// on every producer of TestLevelIndexNeighborLookup, plus the tree
// NewFromColumns loads from a first-touch arena (the per-point Insert
// oracle's, the order of a snapshot an older release saved from a tree
// it grew batch by batch, which the loader rewrites in canonical order)
// and the index over such a loaded active tree and a canonical aging
// tree. On each, every
// level's entries must ascend strictly by Path.Compare and hold exactly
// the paths WalkLevel visits in any source, each with every source's
// Ref at that path (NilRef where the source lacks it) and the sources'
// summed N and P. The neighbor links are pinned by
// TestLevelIndexNeighborLookup, the face sums by conv's
// TestFaceSumMatchesScratch.
func TestLevelIndexMatchesWalk(t *testing.T) {
	for _, c := range []struct{ d, H, n int }{{6, 5, 3000}, {15, 4, 2000}, {2, ctree.MaxLevels, 300}} {
		pts := linkPoints(c.d, min(c.H-1, 50), c.n, true, int64(c.d*100+c.H))
		producers := linkProducers(t, c.d, c.H, pts)
		if window := producers["window/clone+merge"][0]; !ctree.Canonical(window) {
			t.Fatalf("d%d_H%d: the merged window tree is not canonical", c.d, c.H)
		}
		firstTouch, active := ctree.New(c.d, c.H), ctree.New(c.d, c.H)
		for _, p := range pts {
			if err := firstTouch.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range pts[len(pts)/2:] {
			if err := active.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		if ctree.Canonical(firstTouch) {
			t.Fatalf("d%d_H%d: the first-touch arena is canonical, so it cannot test the loader's rewrite", c.d, c.H)
		}
		load := func(tr *ctree.Tree) *ctree.Tree {
			l, err := ctree.NewFromColumns(tr.D, tr.H, tr.Eta, tr.Columns())
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		producers["firsttouch"] = []*ctree.Tree{load(firstTouch)}
		producers["window/firsttouch-active"] = []*ctree.Tree{load(active), producers["window/two-tree"][1]}
		for name, srcs := range producers {
			checkIndexMatchesWalk(t, fmt.Sprintf("d%d_H%d/%s", c.d, c.H, name), srcs)
		}
	}
}

// checkIndexMatchesWalk is TestLevelIndexMatchesWalk's check of the
// index over srcs.
func checkIndexMatchesWalk(t *testing.T, name string, srcs []*ctree.Tree) {
	t.Helper()
	idxs := ctree.Indexes(t, srcs...)
	d := srcs[0].D
	for h := 1; h <= srcs[0].H-1; h++ {
		// walk[path][s] is source s's Ref at path.
		walk := map[string][]ctree.Ref{}
		for s, tr := range srcs {
			tr.WalkLevel(h, func(p ctree.Path, r ctree.Ref) {
				key := fmt.Sprint(p)
				if walk[key] == nil {
					walk[key] = make([]ctree.Ref, len(srcs))
					for i := range walk[key] {
						walk[key][i] = ctree.NilRef
					}
				}
				walk[key][s] = r
			})
		}
		ix := idxs[h-1]
		if ix.Len() != len(walk) {
			t.Fatalf("%s: level %d index has %d entries, WalkLevel visits %d paths", name, h, ix.Len(), len(walk))
		}
		for i := 0; i < ix.Len(); i++ {
			p := ix.PathInto(nil, i)
			if i > 0 && ix.PathInto(nil, i-1).Compare(p) >= 0 {
				t.Fatalf("%s: level %d entries %d and %d are out of path order: %v, %v", name, h, i-1, i, ix.PathInto(nil, i-1), p)
			}
			refs, ok := walk[fmt.Sprint(p)]
			if !ok {
				t.Fatalf("%s: level %d entry %d: path %v is not a WalkLevel path", name, h, i, p)
			}
			var n int32
			pc := make([]int32, d)
			for s, tr := range srcs {
				r := ctree.SourceRef(ix, i, s)
				if r != refs[s] {
					t.Fatalf("%s: level %d entry %d: source %d Ref %d, WalkLevel's %d", name, h, i, s, r, refs[s])
				}
				if r != ctree.NilRef {
					n += tr.N(r)
					for j := range pc {
						pc[j] += tr.P(r, j)
					}
				}
			}
			if ix.N(i) != n {
				t.Fatalf("%s: level %d entry %d: N %d, the sources' sum %d", name, h, i, ix.N(i), n)
			}
			for j, want := range pc {
				if got := ix.P(i, j); got != want {
					t.Fatalf("%s: level %d entry %d axis %d: P %d, the sources' sum %d", name, h, i, j, got, want)
				}
			}
		}
	}
}
