package serve

import (
	"bytes"
	"context"
	"maps"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/treeio"
)

// windowBatches splits rows into consecutive batches of size points.
func windowBatches(rows [][]float64, size int) [][][]float64 {
	var out [][][]float64
	for i := 0; i+size <= len(rows); i += size {
		out = append(out, rows[i:i+size])
	}
	return out
}

// windowOf returns the server's window tree, as a pass would cluster it.
func windowOf(t *testing.T, s *Server) *ctree.Tree {
	t.Helper()
	s.mu.Lock()
	trees := s.window()
	s.mu.Unlock()
	w, err := ctree.Union(trees...)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestReplayRebuildsLiveWindow pins that live ingest and WAL replay
// rotate by one rule: eight 55-point batches into a 150-point window,
// with passes after batches 4 and 8 and no checkpoint, then a replay
// boot. Both must hold the same window, batches 4–8 (275 points):
// rotation happens right before the batch that finds the active tree
// full, never at a pass.
func TestReplayRebuildsLiveWindow(t *testing.T) {
	cfg := durableConfig(t)
	cfg.WindowPoints = 150
	s := newTestServer(t, cfg)
	batches := windowBatches(streamRows(10, 200, 71), 55)
	for i, b := range batches {
		ingestBatches(t, s, [][][]float64{b})
		if i == 3 || i == 7 {
			if err := s.recluster(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := windowOf(t, s)
	// Crash: no checkpoint, so the recovered window is the replayed log.
	replayed := windowOf(t, newTestServer(t, cfg))
	if live.Eta != 5*55 {
		t.Fatalf("live window holds %d points, want batches 4-8 (%d)", live.Eta, 5*55)
	}
	if !ctree.Equal(live, replayed) {
		t.Fatalf("replayed window (%d points) differs from the live one (%d points)", replayed.Eta, live.Eta)
	}
}

// TestSnapshotBytesMatchBuild pins that the service writes the window
// the way Build would: on the identity domain, the snapshot POST
// /snapshot/save writes is byte-identical to treeio.Save of
// ctree.Build over the window's points, and the checkpoint a recovered
// service writes after a kill and a WAL replay is byte-identical to
// treeio.SaveCheckpoint of that build. It checks a window after two
// rotations, whose merge is canonical already, and an unrotated one,
// whose active tree the save canonicalizes.
func TestSnapshotBytesMatchBuild(t *testing.T) {
	batches := windowBatches(streamRows(1, 200, 73), 55)
	for _, tc := range []struct {
		windowPoints int
		first        int // the first batch the window holds
	}{
		// 150-point window: rotations before batches 4 and 7 leave
		// batches 4-8 in the window.
		{150, 3},
		// No window: every batch stays in the active tree.
		{0, 0},
	} {
		window := dataset.New(5, 0)
		for _, b := range batches[tc.first:] {
			for _, p := range b {
				window.Append(p)
			}
		}
		built, err := ctree.Build(window, 4, ctree.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, durable := range []bool{false, true} {
			cfg := testConfig()
			if durable {
				cfg = durableConfig(t)
			}
			cfg.Min, cfg.Max = nil, nil
			cfg.WindowPoints = tc.windowPoints
			cfg.SnapshotPath = filepath.Join(t.TempDir(), "window.snap")
			s := newTestServer(t, cfg)
			ingestBatches(t, s, batches)
			var want bytes.Buffer
			if durable {
				// Kill: abandon the server; the next boot replays the WAL.
				s = newTestServer(t, cfg)
				_, err = treeio.Save(&want, built, treeio.Meta{Seq: uint64(len(batches)), HasSeq: true})
			} else {
				_, err = treeio.Save(&want, built, treeio.Meta{})
			}
			if err != nil {
				t.Fatal(err)
			}
			if w := do(t, s.Handler(), "POST", "/snapshot/save", "", nil); w.Code != http.StatusOK {
				t.Fatalf("window %d, durable=%v: snapshot save = %d: %s", tc.windowPoints, durable, w.Code, w.Body)
			}
			got, err := os.ReadFile(cfg.SnapshotPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("window %d, durable=%v: the saved window (%d bytes) is not byte-identical to Build's snapshot (%d bytes)",
					tc.windowPoints, durable, len(got), want.Len())
			}
		}
	}
}

// TestViewTreeBytesIsThePass pins what /stats view.treeBytes reports
// after a pass: what the pass held and the server does not keep
// between passes. Over a window of one run that is the run's clone
// plus its level index; over a rotated window of several runs, which
// the pass shares with the server, it is the level index over them
// alone.
func TestViewTreeBytesIsThePass(t *testing.T) {
	cfg := testConfig()
	cfg.WindowPoints = 150
	s := newTestServer(t, cfg)
	batches := windowBatches(streamRows(10, 200, 71), 55)
	for _, tc := range []struct {
		name    string
		batches [][][]float64
		oneTree bool // whether the window is one tree after the batches
	}{
		{"one run", batches[:1], true},
		{"rotated", batches[1:], false},
	} {
		ingestBatches(t, s, tc.batches)
		if err := s.recluster(context.Background()); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		trees := s.window()
		s.mu.Unlock()
		if (len(trees) == 1) != tc.oneTree {
			t.Fatalf("%s: the window holds %d trees", tc.name, len(trees))
		}
		idx, err := ctree.UnionLevelIndexes(trees...)
		if err != nil {
			t.Fatal(err)
		}
		var want uint64
		for _, ix := range idx {
			want += ix.MemoryBytes()
		}
		if len(trees) == 1 {
			want += trees[0].MemoryBytes() // the pass's clone
		}
		if got := s.cur.Load().treeBytes; got != want {
			t.Fatalf("%s: view.treeBytes = %d, want what the pass held: %d", tc.name, got, want)
		}
	}
	if s.aging == nil {
		t.Fatal("the window never rotated; the rotated case is vacuous")
	}
}

// TestViewHoldsNoTree pins that a pass leaves nothing behind but its
// published view, and that the view reaches no Counting-tree: after a
// pass over a window that has not rotated and over one that has, the
// view's result carries no tree (core.Run over several trees returns
// none) and the trees reachable from the view and the server are the
// server's own active runs and aging tree, so nothing the pass made
// outlives it.
func TestViewHoldsNoTree(t *testing.T) {
	cfg := testConfig()
	cfg.WindowPoints = 150
	s := newTestServer(t, cfg)
	for _, batches := range [][][][]float64{
		windowBatches(streamRows(10, 110, 73), 55), // 110 points: no rotation yet
		windowBatches(streamRows(10, 220, 74), 55), // rotates the window
	} {
		ingestBatches(t, s, batches)
		if err := s.recluster(context.Background()); err != nil {
			t.Fatal(err)
		}
		v := s.cur.Load()
		if v == nil || v.res.Tree != nil {
			t.Fatalf("the published view is %v with a result tree; want a view without one", v)
		}
		s.mu.Lock()
		own := map[*ctree.Tree]bool{}
		for _, tr := range s.window() {
			own[tr] = true
		}
		s.mu.Unlock()
		if found := reachableTrees(v); len(found) != 0 {
			t.Fatalf("the published view reaches %d Counting-trees", len(found))
		}
		if found := reachableTrees(s); !maps.Equal(found, own) {
			t.Fatalf("the server reaches %d Counting-trees, want its %d own: the active runs and the aging tree", len(found), len(own))
		}
	}
	if s.aging == nil {
		t.Fatal("the window never rotated; the rotated case is vacuous")
	}
}

// reachableTrees returns every *ctree.Tree reachable from root through
// pointers, interfaces, structs, slices, arrays and maps, exported
// fields or not. It does not follow unsafe pointers (an
// atomic.Pointer's value), channels or functions.
func reachableTrees(root any) map[*ctree.Tree]bool {
	treeType := reflect.TypeOf((*ctree.Tree)(nil))
	found := map[*ctree.Tree]bool{}
	type visit struct {
		p uintptr
		t reflect.Type
	}
	seen := map[visit]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[visit{v.Pointer(), v.Type()}] {
				return
			}
			seen[visit{v.Pointer(), v.Type()}] = true
			if v.Type() == treeType {
				found[(*ctree.Tree)(v.UnsafePointer())] = true
			}
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			if v.Kind() == reflect.Slice && (v.IsNil() || seen[visit{v.Pointer(), v.Type()}]) {
				return
			}
			if v.Kind() == reflect.Slice {
				seen[visit{v.Pointer(), v.Type()}] = true
			}
			if !holdsPointers(v.Type().Elem()) {
				return
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	walk(reflect.ValueOf(root))
	return found
}

// holdsPointers reports whether a value of type t can lead to another
// value: scalars, strings and arrays of them cannot.
func holdsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Slice, reflect.Map:
		return true
	case reflect.Array:
		return holdsPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestQueryLabelMatchesFloatTest pins that /query answers by the batch
// labeling rule: on a settled rotated window, the published view's
// labeler returns the owner of the first β-cluster box containing the
// point, by the float test, for random points, for points on multiples
// of 2^-h at every stored level h, and for coordinates at 1 − 1e−9.
func TestQueryLabelMatchesFloatTest(t *testing.T) {
	cfg := testConfig()
	cfg.Min, cfg.Max = nil, nil
	cfg.WindowPoints = 150
	s := newTestServer(t, cfg)
	for i, b := range windowBatches(streamRows(1, 400, 79), 55) {
		ingestBatches(t, s, [][][]float64{b})
		if i%3 == 2 {
			if err := s.recluster(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.recluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.aging == nil {
		t.Fatal("the window never rotated")
	}
	v := s.cur.Load()
	if v == nil || len(v.res.Betas) == 0 {
		t.Fatal("no view with β-clusters was published")
	}
	owner := make([]int, len(v.res.Betas))
	for _, c := range v.res.Clusters {
		for _, b := range c.Betas {
			owner[b] = c.ID
		}
	}
	want := func(p []float64) int {
		for b, bt := range v.res.Betas {
			inside := true
			for j, x := range p {
				if x < bt.L[j] || x > bt.U[j] {
					inside = false
					break
				}
			}
			if inside {
				return owner[b]
			}
		}
		return core.Noise
	}
	rng := rand.New(rand.NewSource(83))
	var pts [][]float64
	for i := 0; i < 2000; i++ {
		p := make([]float64, cfg.Dims)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts = append(pts, p)
	}
	for h := 1; h <= s.cfg.H-1; h++ {
		cells := 1 << h
		for i := 0; i < 500; i++ {
			p := make([]float64, cfg.Dims)
			for j := range p {
				p[j] = float64(rng.Intn(cells+1)) / float64(cells)
			}
			pts = append(pts, p)
		}
	}
	for j := 0; j < cfg.Dims; j++ {
		for _, p := range pts[:50] {
			q := slices.Clone(p)
			q[j] = 1 - 1e-9
			pts = append(pts, q)
		}
	}
	hits := 0
	for i, p := range pts {
		got, exp := v.labeler.Label(p), want(p)
		if got != exp {
			t.Fatalf("point %d %v: label %d, float test %d", i, p, got, exp)
		}
		if got != core.Noise {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no probe landed in a cluster: the check compared Noise with Noise")
	}
}
