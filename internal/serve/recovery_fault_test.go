//go:build fault

package serve

import (
	"context"
	"errors"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"mrcc/internal/fault"
)

// TestKillMatrixRecovery is the crash drill the durability design is
// accountable to: for every injection point in the WAL and checkpoint
// paths, simulate a crash there (the injected error makes the request
// or checkpoint fail exactly the way a kill would, leaving real torn
// or half-finished bytes on disk), abandon the server object, boot a
// fresh one from the same directories, and require the recovered state
// to be bit-identical to a run that only ever saw the acknowledged
// batches. Each scenario also appends a post-recovery batch to prove
// the log is append-ready again.
func TestKillMatrixRecovery(t *testing.T) {
	rows := streamRows(10, 300, 51) // 660 rows
	batches := [][][]float64{rows[:200], rows[200:400], rows[400:530], rows[530:]}

	scenarios := []struct {
		name  string
		point string
		// checkpointFirst runs a checkpoint covering batches[:2] before
		// the faulted operation, so the fault lands on a log with both a
		// snapshot and a tail.
		checkpointFirst bool
		// faultOnCheckpoint arms the point around a checkpoint call
		// instead of the ingest of batches[2].
		faultOnCheckpoint bool
	}{
		{name: "append torn cold", point: fault.WALAppend},
		{name: "append torn after checkpoint", point: fault.WALAppend, checkpointFirst: true},
		{name: "fsync crash cold", point: fault.WALSync},
		{name: "fsync crash after checkpoint", point: fault.WALSync, checkpointFirst: true},
		{name: "rotate crash", point: fault.WALRotate},
		{name: "checkpoint crash before truncate", point: fault.Checkpoint, faultOnCheckpoint: true},
		{name: "checkpoint crash with prior checkpoint", point: fault.Checkpoint, checkpointFirst: true, faultOnCheckpoint: true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Cleanup(fault.Reset)
			cfg := durableConfig(t)
			if sc.point == fault.WALRotate {
				// Tiny segments so the faulted ingest triggers a rotation.
				cfg.WALSegmentBytes = 1 << 10
			}
			s := newTestServer(t, cfg)
			ingestBatches(t, s, batches[:2])
			acked := batches[:2]
			if sc.checkpointFirst {
				if _, err := s.saveSnapshot(); err != nil {
					t.Fatal(err)
				}
			}

			boom := errors.New("simulated crash")
			fault.Set(sc.point, func() error { return boom })
			if sc.faultOnCheckpoint {
				// The crash hits between the snapshot save and the WAL
				// truncate: the snapshot now covers records that are still
				// in the log — the double-apply window.
				if _, err := s.saveSnapshot(); !errors.Is(err, boom) {
					t.Fatalf("faulted checkpoint returned %v, want the injected error", err)
				}
			} else {
				w := do(t, s.Handler(), "POST", "/ingest", "application/json", mustJSON(t, batches[2]))
				if w.Code != http.StatusInternalServerError {
					t.Fatalf("faulted ingest = %d, want 500: %s", w.Code, w.Body)
				}
				if sc.point == fault.WALSync {
					// The record was fully written before the failed fsync, so
					// recovery legitimately holds it — the documented
					// at-least-once edge for batches the client saw a 500 for.
					acked = batches[:3]
				}
			}
			// Crash: the server object is abandoned with whatever bytes the
			// fault left on disk.

			recovered := newTestServer(t, cfg)
			requireTreeEqual(t, recovered, referenceTree(t, acked))

			// The recovered log accepts the next batch and it survives yet
			// another recovery.
			ingestBatches(t, recovered, batches[3:])
			again := newTestServer(t, cfg)
			requireTreeEqual(t, again, referenceTree(t, append(append([][][]float64{}, acked...), batches[3])))
		})
	}
}

// TestIngestAfterTornAppendFailsUntilRestart pins the sticky-broken
// contract end to end: once an append tears, every later ingest on the
// same process is a 500 (the service never risks interleaving records
// after unknown bytes), while queries keep serving the last view.
func TestIngestAfterTornAppendFailsUntilRestart(t *testing.T) {
	t.Cleanup(fault.Reset)
	cfg := durableConfig(t)
	s := newTestServer(t, cfg)
	rows := streamRows(10, 200, 53)
	ingestBatches(t, s, [][][]float64{rows[:300]})

	fault.Set(fault.WALAppend, func() error { return errors.New("torn") })
	if w := do(t, s.Handler(), "POST", "/ingest", "application/json", mustJSON(t, rows[300:320])); w.Code != http.StatusInternalServerError {
		t.Fatalf("faulted ingest = %d, want 500", w.Code)
	}
	// The fault is disarmed now, but the log is sticky-broken.
	if w := do(t, s.Handler(), "POST", "/ingest", "application/json", mustJSON(t, rows[320:340])); w.Code != http.StatusInternalServerError {
		t.Fatalf("ingest after torn append = %d, want 500 until restart", w.Code)
	}
	if got := s.counters.Snapshot().BatchesRejected; got != 2 {
		t.Fatalf("rejected counter = %d, want 2", got)
	}
	// Restart clears it.
	recovered := newTestServer(t, cfg)
	ingestBatches(t, recovered, [][][]float64{rows[300:320]})
}

// TestCheckpointCrashKeepsOldSnapshot: the faulted checkpoint happens
// entirely before the truncate, and treeio's atomic SaveFile means the
// snapshot file is either the old one or the new one — never torn. A
// crash injected at the checkpoint point leaves the NEW snapshot (the
// save completed) with the old WAL; replay's sequence filter makes the
// overlap harmless. This test pins that the snapshot file on disk
// after the fault is loadable and carries the new sequence.
func TestCheckpointCrashKeepsLoadableSnapshot(t *testing.T) {
	t.Cleanup(fault.Reset)
	cfg := durableConfig(t)
	s := newTestServer(t, cfg)
	ingestBatches(t, s, [][][]float64{streamRows(10, 100, 55)})

	fault.Set(fault.Checkpoint, func() error { return errors.New("crash before truncate") })
	if _, err := s.saveSnapshot(); err == nil {
		t.Fatal("faulted checkpoint succeeded")
	}
	if _, err := os.Stat(cfg.SnapshotPath); err != nil {
		t.Fatalf("snapshot missing after pre-truncate crash: %v", err)
	}
	// The WAL still holds the covered record (truncate never ran)...
	_, _, segs := s.wal.Stats()
	if segs < 1 || s.wal.LastSeq() != 1 {
		t.Fatalf("wal state after pre-truncate crash: lastSeq=%d segments=%d", s.wal.LastSeq(), segs)
	}
	// ...and recovery applies it exactly once.
	recovered := newTestServer(t, cfg)
	if got := recovered.counters.Snapshot().WALReplayed; got != 0 {
		t.Fatalf("replayed %d covered batches, want 0 (sequence filter)", got)
	}
	recovered.mu.Lock()
	eta := recovered.active.Points()
	recovered.mu.Unlock()
	if want := 220; eta != want { // streamRows(10, 100, …) = 2*100+20 rows
		t.Fatalf("recovered tree holds %d points, want %d", eta, want)
	}
}

// TestReclusterFailureBackoff drives the containment path: a failing
// pass keeps the last good view serving, surfaces staleness via
// /readyz and /stats, and the backed-off retry recovers on its own.
func TestReclusterFailureBackoff(t *testing.T) {
	t.Cleanup(fault.Reset)
	cfg := testConfig()
	s := newTestServer(t, cfg)
	s.backoffBase = 10 * time.Millisecond
	if _, err := s.ingest(streamRows(10, 300, 57)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); s.Wait() }()
	s.Start(ctx)
	// First pass succeeds and publishes.
	s.Kick()
	waitFor(t, "first view", func() bool { return s.cur.Load() != nil })
	good := s.cur.Load()

	// Arm a one-shot pipeline fault: the next pass fails, later ones
	// succeed again.
	fault.Set(fault.ScanPass, func() error { return errors.New("injected pipeline failure") })
	s.Kick()
	waitFor(t, "failure recorded", func() bool { return s.reclusterFails.Load() >= 1 })
	if v := s.cur.Load(); v == nil || v.seq != good.seq {
		t.Fatal("failed pass dropped or replaced the last good view")
	}
	w := do(t, s.Handler(), "GET", "/readyz", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("readyz during backoff = %d, want 200 (last good view serves)", w.Code)
	}
	if body := w.Body.String(); !strings.Contains(body, `"stale": true`) {
		t.Fatalf("readyz does not surface staleness: %s", body)
	}
	// The automatic backed-off retry publishes a fresh view and zeroes
	// the failure count.
	waitFor(t, "recovery pass", func() bool {
		v := s.cur.Load()
		return v != nil && v.seq > good.seq && s.reclusterFails.Load() == 0
	})
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
