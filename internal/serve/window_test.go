package serve

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"testing"

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
	active, aging := s.active.Clone(), s.aging
	s.mu.Unlock()
	w, err := savedTree(active, aging)
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
				_, err = treeio.SaveCheckpoint(&want, built, uint64(len(batches)))
			} else {
				_, err = treeio.Save(&want, built)
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
// after a pass over a rotated window: what the pass held, its private
// active clone plus the level index over that clone and the aging tree,
// and not the aging tree the server keeps between passes.
func TestViewTreeBytesIsThePass(t *testing.T) {
	cfg := testConfig()
	cfg.WindowPoints = 150
	s := newTestServer(t, cfg)
	ingestBatches(t, s, windowBatches(streamRows(10, 200, 71), 55))
	if err := s.recluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	active, aging := s.active.Clone(), s.aging
	s.mu.Unlock()
	if aging == nil {
		t.Fatal("the window never rotated; the case is vacuous")
	}
	idx, err := ctree.UnionLevelIndexes(active, aging)
	if err != nil {
		t.Fatal(err)
	}
	want := active.MemoryBytes()
	for _, ix := range idx {
		want += ix.MemoryBytes()
	}
	if got := s.cur.Load().treeBytes; got != want {
		t.Fatalf("view.treeBytes = %d, want the active clone plus the index: %d", got, want)
	}
}
