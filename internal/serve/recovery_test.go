package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mrcc/internal/ctree"
	"mrcc/internal/treeio"
)

// durableConfig is testConfig plus the crash-safety surface: a WAL and
// a checkpoint snapshot in a per-test directory, always-fsync so every
// acknowledged batch is durable the moment the 200 goes out.
func durableConfig(t *testing.T) Config {
	t.Helper()
	dir := t.TempDir()
	cfg := testConfig()
	cfg.WALDir = filepath.Join(dir, "wal")
	cfg.SnapshotPath = filepath.Join(dir, "serve.snap")
	cfg.WALSync = "always"
	return cfg
}

// ingestBatches pushes each batch through the HTTP ingest path and
// fails the test on anything but 200.
func ingestBatches(t *testing.T, s *Server, batches [][][]float64) {
	t.Helper()
	h := s.Handler()
	for i, b := range batches {
		w := do(t, h, "POST", "/ingest", "application/json", mustJSON(t, b))
		if w.Code != http.StatusOK {
			t.Fatalf("ingest batch %d = %d: %s", i, w.Code, w.Body)
		}
	}
}

// referenceTree folds the same batches into a WAL-less server and
// returns the window tree it would save (the Union of its runs) — the
// state a run that never crashed holds.
func referenceTree(t *testing.T, batches [][][]float64) *ctree.Tree {
	t.Helper()
	ref := newTestServer(t, testConfig())
	for _, b := range batches {
		if _, err := ref.ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ctree.Union(ref.window()...)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// requireTreeEqual compares a recovered server's merged state against
// the reference, both structurally (ctree.Equal) and bit-identically
// (the snapshots the two would save match byte for byte — the Union
// of the runs writes the canonical arena order, whatever order a warm
// start and its replayed tail left the runs in).
func requireTreeEqual(t *testing.T, s *Server, want *ctree.Tree) {
	t.Helper()
	s.mu.Lock()
	trees := s.window()
	s.mu.Unlock()
	merged, err := ctree.Union(trees...)
	if err != nil {
		t.Fatal(err)
	}
	if !ctree.Equal(want, merged) {
		t.Fatalf("recovered tree differs: %d points / %d cells, want %d / %d",
			merged.Eta, merged.CellCount(), want.Eta, want.CellCount())
	}
	var a, b bytes.Buffer
	if _, err := treeio.Save(&a, want, treeio.Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := treeio.Save(&b, merged, treeio.Meta{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("recovered tree is not bit-identical to the no-crash tree")
	}
}

// TestWALColdRecovery: a service with a WAL but no checkpoint yet is
// killed (the Server is simply abandoned, files left as they are); a
// fresh boot from the same directories replays the whole log and ends
// bit-identical to a run that never crashed.
func TestWALColdRecovery(t *testing.T) {
	cfg := durableConfig(t)
	rows := streamRows(10, 200, 21)
	batches := [][][]float64{rows[:150], rows[150:300], rows[300:]}

	s := newTestServer(t, cfg)
	ingestBatches(t, s, batches)
	// Crash: no shutdown, no snapshot, no WAL close.

	recovered := newTestServer(t, cfg)
	requireTreeEqual(t, recovered, referenceTree(t, batches))
	if got := recovered.counters.Snapshot().WALReplayed; got != int64(len(batches)) {
		t.Fatalf("replayed %d batches, want %d", got, len(batches))
	}
	// Sequences continue where the dead process stopped: the next
	// acknowledged batch gets a fresh sequence, never a reused one.
	if _, err := recovered.ingest(rows[:10]); err != nil {
		t.Fatal(err)
	}
	if got := recovered.wal.LastSeq(); got != uint64(len(batches))+1 {
		t.Fatalf("post-recovery append got sequence %d, want %d", got, len(batches)+1)
	}
}

// TestCheckpointThenCrashRecovery: checkpoint mid-stream, ingest more,
// crash. Recovery = snapshot + replay of only the post-checkpoint tail
// — never a double apply.
func TestCheckpointThenCrashRecovery(t *testing.T) {
	cfg := durableConfig(t)
	rows := streamRows(10, 300, 23)
	batches := [][][]float64{rows[:200], rows[200:350], rows[350:500], rows[500:]}

	s := newTestServer(t, cfg)
	ingestBatches(t, s, batches[:2])
	if _, err := s.saveSnapshot(); err != nil { // a full checkpoint with the WAL on
		t.Fatal(err)
	}
	if got := s.ckptSeq.Load(); got != 2 {
		t.Fatalf("checkpoint covers sequence %d, want 2", got)
	}
	ingestBatches(t, s, batches[2:])
	// Crash.

	recovered := newTestServer(t, cfg)
	requireTreeEqual(t, recovered, referenceTree(t, batches))
	if got := recovered.counters.Snapshot().WALReplayed; got != 2 {
		t.Fatalf("replayed %d batches past the checkpoint, want 2", got)
	}
}

// TestDoubleRecovery: recover, ingest more, crash again, recover again
// — the cycle composes.
func TestDoubleRecovery(t *testing.T) {
	cfg := durableConfig(t)
	rows := streamRows(10, 300, 29)
	batches := [][][]float64{rows[:200], rows[200:400], rows[400:600], rows[600:]}

	s := newTestServer(t, cfg)
	ingestBatches(t, s, batches[:2])
	// Crash 1.
	s2 := newTestServer(t, cfg)
	ingestBatches(t, s2, batches[2:3])
	if _, err := s2.saveSnapshot(); err != nil {
		t.Fatal(err)
	}
	ingestBatches(t, s2, batches[3:])
	// Crash 2.
	s3 := newTestServer(t, cfg)
	requireTreeEqual(t, s3, referenceTree(t, batches))
}

// TestCheckpointTruncatesSegments: with tiny segments, a checkpoint
// removes every sealed segment it covers — the log does not grow
// without bound while checkpoints run.
func TestCheckpointTruncatesSegments(t *testing.T) {
	cfg := durableConfig(t)
	cfg.WALSegmentBytes = 1 << 10 // every few batches seals a segment
	s := newTestServer(t, cfg)
	rows := streamRows(10, 200, 31)
	var batches [][][]float64
	for i := 0; i+20 <= len(rows); i += 20 {
		batches = append(batches, rows[i:i+20])
	}
	ingestBatches(t, s, batches)
	_, _, before := s.wal.Stats()
	if before < 3 {
		t.Fatalf("expected several sealed segments before the checkpoint, got %d", before)
	}
	if _, err := s.saveSnapshot(); err != nil {
		t.Fatal(err)
	}
	_, _, after := s.wal.Stats()
	if after != 1 {
		t.Fatalf("%d segments survive the checkpoint, want only the active tail", after)
	}
	if got := s.counters.Snapshot().Checkpoints; got != 1 {
		t.Fatalf("checkpoint counter = %d, want 1", got)
	}
	// And the truncated log still recovers the full state.
	recovered := newTestServer(t, cfg)
	requireTreeEqual(t, recovered, referenceTree(t, batches))
}

// TestCheckpointLoopRuns: the background cadence checkpoints without
// any HTTP traffic driving it.
func TestCheckpointLoopRuns(t *testing.T) {
	cfg := durableConfig(t)
	cfg.CheckpointEvery = 20 * time.Millisecond
	s := newTestServer(t, cfg)
	ingestBatches(t, s, [][][]float64{streamRows(10, 100, 33)})
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	deadline := time.Now().Add(10 * time.Second)
	for s.counters.Snapshot().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	s.Wait()
	if got := s.ckptSeq.Load(); got == 0 {
		t.Fatal("checkpoint loop ran but recorded no covered sequence")
	}
}

// TestOversizedBodyIs413 pins the satellite contract: a body past
// MaxBodyBytes is 413 (with the limit in the message), not a generic
// 400 — clients can tell "split the batch" from "fix the payload".
func TestOversizedBodyIs413(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBodyBytes = 1 << 10
	s := newTestServer(t, cfg)
	big := mustJSON(t, streamRows(10, 200, 35)) // far beyond 1 KiB
	w := do(t, s.Handler(), "POST", "/ingest", "application/json", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest = %d, want 413: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "1024") {
		t.Fatalf("413 body does not name the limit: %s", w.Body)
	}
	// CSV bodies hit the same guard.
	csv := strings.Repeat("1,2,3,4,5\n", 200)
	if w := do(t, s.Handler(), "POST", "/ingest", "text/csv", []byte(csv)); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized csv ingest = %d, want 413", w.Code)
	}
}

// TestNoViewRetryAfter pins the 503 hint: the header carries the
// re-cluster cadence, so clients back off for exactly as long as the
// service needs to publish.
func TestNoViewRetryAfter(t *testing.T) {
	cfg := testConfig()
	cfg.ReclusterEvery = 15 * time.Second
	s := newTestServer(t, cfg)
	w := do(t, s.Handler(), "GET", "/query?p=1,2,3,4,5", "", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("query before first view = %d, want 503", w.Code)
	}
	if got := w.Result().Header.Get("Retry-After"); got != "15" {
		t.Fatalf("Retry-After = %q, want \"15\"", got)
	}
	// Point-count-only config falls back to the 1s floor.
	s2 := newTestServer(t, testConfig())
	w = do(t, s2.Handler(), "GET", "/query?p=1,2,3,4,5", "", nil)
	if got := w.Result().Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
}

// TestReadyz pins the readiness ladder: empty service is ready (there
// is nothing to recover), a service with data but no view is not, a
// published view makes it ready.
func TestReadyz(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	if w := do(t, h, "GET", "/readyz", "", nil); w.Code != http.StatusOK {
		t.Fatalf("readyz on empty service = %d, want 200: %s", w.Code, w.Body)
	}
	if _, err := s.ingest(streamRows(10, 200, 37)); err != nil {
		t.Fatal(err)
	}
	w := do(t, h, "GET", "/readyz", "", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with data but no view = %d, want 503: %s", w.Code, w.Body)
	}
	if got := w.Result().Header.Get("Retry-After"); got == "" {
		t.Fatal("not-ready readyz carries no Retry-After")
	}
	if err := s.recluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	w = do(t, h, "GET", "/readyz", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("readyz with a view = %d, want 200: %s", w.Code, w.Body)
	}
	var resp map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp["ready"] != true || resp["viewPublished"] != true || resp["stale"] != false {
		t.Fatalf("readyz document = %v", resp)
	}
}

// TestStatsWALBlock: /stats surfaces the WAL position, the checkpoint
// coverage and its age once the durable path is on.
func TestStatsWALBlock(t *testing.T) {
	cfg := durableConfig(t)
	s := newTestServer(t, cfg)
	ingestBatches(t, s, [][][]float64{streamRows(10, 100, 39)})
	var stats statsResponse
	w := do(t, s.Handler(), "GET", "/stats", "", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.WAL == nil {
		t.Fatal("stats carry no wal block with a WAL configured")
	}
	if stats.WAL.LastSeq != 1 || stats.WAL.AppliedSeq != 1 {
		t.Fatalf("wal block = %+v, want lastSeq=appliedSeq=1", stats.WAL)
	}
	if stats.WAL.CheckpointAgeMs != -1 {
		t.Fatalf("checkpoint age %d before any checkpoint, want -1", stats.WAL.CheckpointAgeMs)
	}
	if stats.Counters.WALAppends != 1 || stats.Counters.WALBytes == 0 {
		t.Fatalf("wal counters = %+v", stats.Counters)
	}
	if _, err := s.saveSnapshot(); err != nil {
		t.Fatal(err)
	}
	w = do(t, s.Handler(), "GET", "/stats", "", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.WAL.CheckpointSeq != 1 || stats.WAL.CheckpointAgeMs < 0 {
		t.Fatalf("post-checkpoint wal block = %+v", stats.WAL)
	}
	// A WAL-less service publishes no wal block at all.
	bare := newTestServer(t, testConfig())
	w = do(t, bare.Handler(), "GET", "/stats", "", nil)
	var bareStats statsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &bareStats); err != nil {
		t.Fatal(err)
	}
	if bareStats.WAL != nil {
		t.Fatalf("wal block on a WAL-less service: %+v", bareStats.WAL)
	}
}

// TestReplayAppliesWindowRotation: a windowed service replaying a long
// uncheckpointed tail rotates during replay exactly as live operation
// would — without it, the whole tail would pile into one tree and a
// tail spanning many windows could overrun ctree.MaxPoints, refusing
// to boot on a log the live service acknowledged in full.
func TestReplayAppliesWindowRotation(t *testing.T) {
	cfg := durableConfig(t)
	cfg.WindowPoints = 150
	s := newTestServer(t, cfg)
	rows := streamRows(10, 100, 67) // 220 rows
	var batches [][][]float64
	for i := 0; i+55 <= len(rows); i += 55 { // 4 batches of 55
		batches = append(batches, rows[i:i+55])
	}
	ingestBatches(t, s, batches)
	// Crash with no checkpoint: the whole stream is in the WAL tail.

	recovered := newTestServer(t, cfg)
	recovered.mu.Lock()
	active, aging := recovered.active, recovered.aging
	recovered.mu.Unlock()
	// Rotation fires before the batch that finds the active tree at or
	// past the bound: 55+55+55 = 165 >= 150 rotates, the last 55 start
	// a fresh window.
	if aging == nil {
		t.Fatal("replay of a multi-window tail performed no rotation")
	}
	if aging.Points() != 165 || active.Points() != 55 {
		t.Fatalf("recovered windows hold %d aging / %d active points, want 165/55", aging.Points(), active.Points())
	}
	if got := recovered.counters.Snapshot().Rotations; got != 1 {
		t.Fatalf("rotation counter = %d, want 1", got)
	}
}

// TestWarmStartGeometryMismatchWithWAL: a WAL written by a service
// with different dims is refused at boot, not folded as garbage.
func TestWALDimsMismatchRefused(t *testing.T) {
	cfg := durableConfig(t)
	s := newTestServer(t, cfg)
	ingestBatches(t, s, [][][]float64{streamRows(10, 50, 41)})

	other := cfg
	other.Dims = 4
	other.Min = cfg.Min[:4]
	other.Max = cfg.Max[:4]
	if _, err := New(other); err == nil || !strings.Contains(err.Error(), "dimensionality") {
		t.Fatalf("boot over a 5-dim WAL as 4-dim service: err = %v, want dimensionality refusal", err)
	}
}

// TestDurableWindowRotation: the WAL path and the window rotation
// compose — rotation retires points out of the active tree but the
// checkpoint still covers them via the aging slot.
func TestDurableWindowRotation(t *testing.T) {
	cfg := durableConfig(t)
	cfg.WindowPoints = 200
	s := newTestServer(t, cfg)
	rows := streamRows(10, 200, 43) // 440 rows
	batches := [][][]float64{rows[:220], rows[220:]}
	ingestBatches(t, s, batches[:1])
	if err := s.recluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	ingestBatches(t, s, batches[1:])
	if err := s.recluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.aging == nil || s.aging.Points() != 220 {
		t.Fatal("the second batch did not rotate the full active tree into the aging slot")
	}
	if _, err := s.saveSnapshot(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint merged aging+active; a recovered boot holds every
	// acknowledged point even though the window structure collapsed.
	recovered := newTestServer(t, cfg)
	recovered.mu.Lock()
	eta := recovered.active.Points()
	recovered.mu.Unlock()
	if eta != len(rows) {
		t.Fatalf("recovered tree holds %d points, want %d", eta, len(rows))
	}
}
