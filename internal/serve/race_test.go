package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
)

// TestConcurrentQueriesDuringIngest hammers the published view from 8
// query goroutines (1000+ queries total) while the main goroutine
// ingests batches, forces re-cluster passes (view swaps) and saves
// snapshots. Run under -race this pins the RCU contract: queries never
// take the ingest lock and never observe a half-built view — every
// answer is internally consistent (a cluster ID always indexes into
// the view it was answered from, which the handler guarantees by
// loading the pointer exactly once).
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	cfg := testConfig()
	cfg.WindowPoints = 600 // force rotations mid-flight
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "race.snap")
	s := newTestServer(t, cfg)
	h := s.Handler()

	// Seed enough data that a view exists before the storm starts.
	if _, err := s.ingest(streamRows(10, 200, 11)); err != nil {
		t.Fatal(err)
	}
	if err := s.recluster(context.Background()); err != nil {
		t.Fatal(err)
	}

	const (
		goroutines = 8
		perWorker  = 150 // 8 * 150 = 1200 concurrent queries
	)
	var (
		wg      sync.WaitGroup
		queries atomic.Int64
		stop    atomic.Bool
	)
	points := []string{
		"/query?p=2,3,2,5,5",           // cluster A center
		"/query?p=5,8,8,5,5",           // cluster B center
		"/query?p=9.9,0.1,9.9,0.1,9.9", // far corner, likely noise
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker && !stop.Load(); i++ {
				w := do(t, h, "GET", points[(g+i)%len(points)], "", nil)
				if w.Code != http.StatusOK {
					t.Errorf("query = %d: %s", w.Code, w.Body)
					stop.Store(true)
					return
				}
				var resp queryResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					t.Error(err)
					stop.Store(true)
					return
				}
				// Internal consistency of one answer: noise and cluster
				// agree, a hit names its subspace, and the view metadata
				// is from a fully published view.
				if resp.Noise != (resp.Cluster == core.Noise) {
					t.Errorf("inconsistent answer: %+v", resp)
				}
				if !resp.Noise && len(resp.RelevantAxes) == 0 {
					t.Errorf("cluster hit with no relevant axes: %+v", resp)
				}
				if resp.ViewSeq == 0 || resp.ViewPoints == 0 {
					t.Errorf("answer from an unpublished view: %+v", resp)
				}
				queries.Add(1)
			}
		}(g)
	}

	// Meanwhile: ingest, re-cluster (view swaps) and snapshot saves.
	for round := int64(0); round < 6 && !stop.Load(); round++ {
		if _, err := s.ingest(streamRows(10, 100, 100+round)); err != nil {
			t.Error(err)
			break
		}
		if err := s.recluster(context.Background()); err != nil {
			t.Error(err)
			break
		}
		if _, err := s.saveSnapshot(); err != nil {
			t.Error(err)
			break
		}
		// Also exercise /stats concurrently with the queries.
		if w := do(t, h, "GET", "/stats", "", nil); w.Code != http.StatusOK {
			t.Errorf("stats = %d", w.Code)
			break
		}
	}
	wg.Wait()
	if queries.Load() < 1000 {
		t.Fatalf("only %d concurrent queries completed, want >= 1000", queries.Load())
	}
	if t.Failed() {
		return
	}
	// Sanity: views actually swapped while the queries ran.
	if v := s.cur.Load(); v == nil || v.seq < 6 {
		t.Fatalf("view swaps did not happen during the storm (seq=%v)", v)
	}
}

// TestIngestSheddingUnderSaturation saturates the in-flight bound with
// requests whose bodies never finish arriving, then fires a burst of
// well-formed ingests at the full semaphore. Under -race this pins the
// admission-control contract: every burst request is shed with 429 (no
// unbounded queueing), the shed counter is exact, concurrent 429s
// never corrupt the tree or the counters, and the stalled requests
// complete normally once their bodies arrive.
func TestIngestSheddingUnderSaturation(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInFlight = 2
	s := newTestServer(t, cfg)
	h := s.Handler()

	// Occupy every in-flight slot with a request stalled inside its
	// body read — the semaphore is held from before parsing to after
	// the fold, so a dribbling client pins a slot the whole time.
	blockers := cfg.MaxInFlight
	type pending struct {
		pw   *io.PipeWriter
		done chan *httptest.ResponseRecorder
	}
	var stalled []pending
	for i := 0; i < blockers; i++ {
		pr, pw := io.Pipe()
		done := make(chan *httptest.ResponseRecorder, 1)
		req := httptest.NewRequest("POST", "/ingest", pr)
		req.Header.Set("Content-Type", "application/json")
		go func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			done <- w
		}()
		stalled = append(stalled, pending{pw, done})
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(s.inflight) < blockers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d slots occupied within 10s", len(s.inflight), blockers)
		}
		time.Sleep(time.Millisecond)
	}

	// The burst: every request must be shed immediately.
	const burst = 32
	var (
		wg   sync.WaitGroup
		shed atomic.Int64
	)
	body := mustJSON(t, streamRows(10, 10, 61))
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := do(t, h, "POST", "/ingest", "application/json", body)
			if w.Code != http.StatusTooManyRequests {
				t.Errorf("burst ingest at a full semaphore = %d, want 429", w.Code)
				return
			}
			if w.Result().Header.Get("Retry-After") == "" {
				t.Error("429 carries no Retry-After")
			}
			shed.Add(1)
		}()
	}
	wg.Wait()
	if shed.Load() != burst {
		t.Fatalf("%d/%d burst requests shed", shed.Load(), burst)
	}
	if got := s.counters.Snapshot().SheddedRequests; got != burst {
		t.Fatalf("shed counter = %d, want %d", got, burst)
	}

	// Release the stalled requests: their slots were never stolen and
	// their batches fold normally.
	batch := mustJSON(t, streamRows(10, 20, 63))
	for _, p := range stalled {
		if _, err := p.pw.Write(batch); err != nil {
			t.Fatal(err)
		}
		p.pw.Close()
	}
	for i, p := range stalled {
		w := <-p.done
		if w.Code != http.StatusOK {
			t.Fatalf("stalled request %d = %d after release: %s", i, w.Code, w.Body)
		}
	}
	wantPts := blockers * (2*20 + 4) // streamRows(…, 20, …) emits 2n+n/5 rows
	s.mu.Lock()
	eta := pointsOf(s.active)
	s.mu.Unlock()
	if eta != wantPts {
		t.Fatalf("tree holds %d points after the storm, want %d (shed requests must not fold)", eta, wantPts)
	}
	if got := s.counters.Snapshot().BatchesIngested; got != int64(blockers) {
		t.Fatalf("ingested counter = %d, want %d", got, blockers)
	}
}

// TestConcurrentCheckpointsNeverLoseCoverage hammers the checkpoint
// path from several goroutines (the shapes of the timer loop and POST
// /snapshot/save racing) while batches keep arriving, with tiny
// segments so truncation really removes files. The protocol must be
// single-flight: an interleaved pair could otherwise rename an older
// snapshot into place after a newer checkpoint truncated the log,
// declaring coverage the removed segments no longer back. Recovery
// after the storm must hold every acknowledged batch, and the recorded
// checkpoint sequence must never regress.
func TestConcurrentCheckpointsNeverLoseCoverage(t *testing.T) {
	cfg := durableConfig(t)
	cfg.WALSegmentBytes = 1 << 10
	s := newTestServer(t, cfg)
	rows := streamRows(10, 300, 71) // 660 rows
	var batches [][][]float64
	for i := 0; i+30 <= len(rows); i += 30 {
		batches = append(batches, rows[i:i+30])
	}

	const checkpointers = 4
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
	)
	for g := 0; g < checkpointers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for !stop.Load() {
				if _, err := s.saveSnapshot(); err != nil && err != errNothingIngested {
					t.Errorf("concurrent checkpoint: %v", err)
					return
				}
				if got := s.ckptSeq.Load(); got < last {
					t.Errorf("checkpoint sequence regressed: %d after %d", got, last)
					return
				} else {
					last = got
				}
			}
		}()
	}
	ingestBatches(t, s, batches)
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Crash and recover: no interleaving may have truncated records an
	// on-disk snapshot does not cover.
	recovered := newTestServer(t, cfg)
	requireTreeEqual(t, recovered, referenceTree(t, batches))
}

// TestShutdownWhileCheckpointing runs the full stack with an
// aggressive checkpoint cadence and a durable WAL, cancels it while
// checkpoints are in flight, and requires a clean drain: Run returns
// without error, the final epilogue checkpoint covers every
// acknowledged batch, and a fresh boot recovers bit-identical state.
func TestShutdownWhileCheckpointing(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.ReclusterEvery = 20 * time.Millisecond
	cfg.WALDir = filepath.Join(dir, "wal")
	cfg.SnapshotPath = filepath.Join(dir, "shutdown.snap")
	cfg.WALSync = "always"
	cfg.CheckpointEvery = 10 * time.Millisecond
	s := newTestServer(t, cfg)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, l, 2*time.Second) }()

	base := "http://" + l.Addr().String()
	client := &http.Client{Timeout: 5 * time.Second}
	rows := streamRows(10, 300, 65)
	batches := [][][]float64{rows[:220], rows[220:440], rows[440:]}
	for i, b := range batches {
		resp, err := client.Post(base+"/ingest", "application/json", bytes.NewReader(mustJSON(t, b)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d over TCP = %d", i, resp.StatusCode)
		}
	}
	// Let at least one background checkpoint land, then pull the plug
	// mid-cadence.
	deadline := time.Now().Add(10 * time.Second)
	for s.counters.Snapshot().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no background checkpoint within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not drain within 10s of cancellation")
	}

	recovered := newTestServer(t, cfg)
	requireTreeEqual(t, recovered, referenceTree(t, batches))
}

// TestRunGracefulShutdown boots the full Run stack on an ephemeral
// port, exercises it over real TCP, cancels the context (the SIGTERM
// path) and checks the shutdown epilogue saved a warm-start snapshot.
func TestRunGracefulShutdown(t *testing.T) {
	cfg := testConfig()
	cfg.ReclusterEvery = 50 * time.Millisecond
	cfg.ReclusterPoints = 100
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "shutdown.snap")
	s := newTestServer(t, cfg)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, l, 2*time.Second) }()

	base := "http://" + l.Addr().String()
	client := &http.Client{Timeout: 5 * time.Second}
	body := mustJSON(t, streamRows(10, 400, 11))
	resp, err := client.Post(base+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest over TCP = %d", resp.StatusCode)
	}

	// The point trigger (400 >= 100) publishes a view shortly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base + "/query?p=2,3,2,5,5")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no published view within 10s (last query = %d)", code)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return within 10s of cancellation")
	}

	// The shutdown epilogue persisted the tree for the next boot.
	warm := newTestServer(t, cfg)
	warm.mu.Lock()
	eta := pointsOf(warm.active)
	warm.mu.Unlock()
	if eta == 0 {
		t.Fatal("shutdown left no warm-start snapshot")
	}
}

// TestPassSharesRunsDuringIngest runs the re-cluster loop (Start)
// against a stream of small batches that cascade run merges and rotate
// the window, while another goroutine saves snapshots; the stream
// waits for one more pass within every ten batches, so passes keep
// running while batches arrive. Passes share the
// window's runs with ingest, so under -race this pins that nothing
// writes a shared run: not a pass (its Used flags and cached indexes go
// to its own index, or to the clone of a one-tree window, which the
// window passes through first), not a merge (it writes a new run), not
// the first pass after a rotation (it unites the retired runs into a
// new tree). Every pass must succeed, and the window must then unite
// to the tree a service fed the same batches with no pass holds, Used
// flags included.
func TestPassSharesRunsDuringIngest(t *testing.T) {
	cfg := testConfig()
	cfg.WindowPoints = 300
	cfg.ReclusterPoints = 40
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "runs.snap")
	s := newTestServer(t, cfg)
	rows := streamRows(10, 1000, 97) // 2200 rows
	var batches [][][]float64
	for i := 0; i < len(rows); i += 25 {
		batches = append(batches, rows[i:min(i+25, len(rows))])
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	// The clone case: a pass over a window of one run and no aging tree.
	ingestBatches(t, s, batches[:1])
	s.Kick()
	for deadline := time.Now().Add(10 * time.Second); s.cur.Load() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no view was published over the one-run window")
		}
	}
	s.mu.Lock()
	window := s.window()
	s.mu.Unlock()
	if len(window) != 1 || s.cur.Load().points != len(batches[0]) {
		t.Fatal("the first pass did not cluster a window of one run and no aging tree")
	}
	first := newTestServer(t, Config{Dims: cfg.Dims, Min: cfg.Min, Max: cfg.Max, ReclusterPoints: cfg.ReclusterPoints})
	ingestBatches(t, first, batches[:1])
	if !ctree.Equal(window[0], first.active[0]) {
		t.Fatal("the pass over a one-run window changed the run (its Used flags) instead of a clone")
	}

	var (
		wg   sync.WaitGroup
		stop atomic.Bool
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := s.saveSnapshot(); err != nil {
				t.Errorf("snapshot during ingest: %v", err)
				return
			}
		}
	}()
	halt := func() {
		stop.Store(true)
		wg.Wait()
	}
	defer halt()
	passes := 1
	for i, b := range batches[1:] {
		ingestBatches(t, s, [][][]float64{b})
		if i%10 == 9 {
			// Let the loop catch up, so passes keep running while later
			// batches arrive: one more completes within every ten batches.
			seq := s.seq.Load()
			s.Kick()
			for deadline := time.Now().Add(10 * time.Second); s.seq.Load() == seq; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("no pass completed while batches arrived")
				}
			}
			passes++
		}
	}
	halt()
	cancel()
	s.Wait()
	if got := s.counters.Snapshot().Rotations; got < 5 {
		t.Fatalf("%d rotations; the storm was meant to rotate the window repeatedly", got)
	}
	if n := s.reclusterFails.Load(); n != 0 {
		t.Fatalf("%d passes failed: %s", n, *s.lastReclusterErr.Load())
	}
	if got := s.counters.Snapshot().Reclusters; got < int64(passes) {
		t.Fatalf("%d passes succeeded, want at least the %d waited for", got, passes)
	}

	ref := newTestServer(t, Config{Dims: cfg.Dims, Min: cfg.Min, Max: cfg.Max, ReclusterPoints: cfg.ReclusterPoints, WindowPoints: cfg.WindowPoints})
	ingestBatches(t, ref, batches)
	want, err := ctree.Union(ref.window()...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ctree.Union(s.window()...)
	if err != nil {
		t.Fatal(err)
	}
	if !ctree.Equal(got, want) {
		t.Fatal("the window after the storm differs from the window of the same batches with no pass")
	}
}
