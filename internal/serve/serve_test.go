package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mrcc/internal/ctree"
)

// streamRows generates the facade tests' two-cluster shape in domain
// units [0, scale): cluster A lives in axes {0,1,2}, cluster B in axes
// {1,2,3}, plus background noise.
func streamRows(scale float64, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	jitter := func(c float64) float64 {
		v := c + 0.02*rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		if v >= 1 {
			v = 1 - 1e-12
		}
		return scale * v
	}
	var rows [][]float64
	for i := 0; i < n; i++ {
		rows = append(rows, []float64{
			jitter(0.2), jitter(0.3), jitter(0.2),
			scale * rng.Float64(), scale * rng.Float64(),
		})
	}
	for i := 0; i < n; i++ {
		rows = append(rows, []float64{
			scale * rng.Float64(),
			jitter(0.8), jitter(0.8), jitter(0.5),
			scale * rng.Float64(),
		})
	}
	for i := 0; i < n/5; i++ {
		rows = append(rows, []float64{
			scale * rng.Float64(), scale * rng.Float64(), scale * rng.Float64(),
			scale * rng.Float64(), scale * rng.Float64(),
		})
	}
	return rows
}

// testConfig is the shared service shape: 5 dims in domain [0, 10),
// re-clustering only on demand (no timer racing the assertions).
func testConfig() Config {
	min := []float64{0, 0, 0, 0, 0}
	max := []float64{10, 10, 10, 10, 10}
	return Config{
		Dims:            5,
		Min:             min,
		Max:             max,
		ReclusterPoints: 1 << 30, // effectively manual-only
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// postJSON round-trips one request through the service handler.
func do(t *testing.T, h http.Handler, method, target, contentType string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, target, rd)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{}, // no dims
		{Dims: 2, ReclusterEvery: time.Second, Min: []float64{0}},                          // Min without Max
		{Dims: 2, ReclusterEvery: time.Second, Min: []float64{0, 0}, Max: []float64{1, 0}}, // empty axis
		{Dims: 2}, // no re-cluster trigger at all
		{Dims: 2, ReclusterEvery: time.Second, Alpha: 1.5}, // alpha out of range
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{Dims: 2, ReclusterEvery: time.Second}); err != nil {
		t.Errorf("minimal valid config rejected: %v", err)
	}
}

// TestConfigWindowBound pins the window's size check: rotation fires
// on the first batch after the active tree fills, so each of the two
// trees can reach WindowPoints + MaxBatchPoints - 1 points, and a
// window whose two trees together can pass ctree.MaxPoints is refused
// at New, the largest one that cannot is accepted.
func TestConfigWindowBound(t *testing.T) {
	for _, batch := range []int{0, 1, 1000} {
		b := batch
		if b == 0 {
			b = 100000 // the MaxBatchPoints default
		}
		largest := int(ctree.MaxPoints)/2 - b + 1
		cfg := Config{Dims: 2, ReclusterEvery: time.Second, MaxBatchPoints: batch, WindowPoints: largest}
		if _, err := New(cfg); err != nil {
			t.Errorf("MaxBatchPoints %d: the largest window %d was refused: %v", batch, largest, err)
		}
		cfg.WindowPoints++
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "MaxPoints") {
			t.Errorf("MaxBatchPoints %d: window %d, one past the largest, gave %v, want a MaxPoints error", batch, cfg.WindowPoints, err)
		}
	}
}

// TestIngestQueryLifecycle drives the full loop through the HTTP
// surface: ingest two batches, re-cluster, and check that queries at
// the two cluster centers answer with two different clusters while a
// far-off point reads as noise.
func TestIngestQueryLifecycle(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	rows := streamRows(10, 400, 11)

	// Before any view: queries are refused with 503.
	if w := do(t, h, "GET", "/query?p=2,3,2,5,5", "", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("query before first view = %d, want 503", w.Code)
	}

	half := len(rows) / 2
	for _, batch := range [][][]float64{rows[:half], rows[half:]} {
		w := do(t, h, "POST", "/ingest", "application/json", mustJSON(t, batch))
		if w.Code != http.StatusOK {
			t.Fatalf("ingest = %d: %s", w.Code, w.Body)
		}
	}
	if err := s.recluster(context.Background()); err != nil {
		t.Fatal(err)
	}

	query := func(p string) queryResponse {
		w := do(t, h, "GET", "/query?p="+p, "", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("query %s = %d: %s", p, w.Code, w.Body)
		}
		var resp queryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	a := query("2,3,2,5,5") // cluster A center in domain units
	b := query("5,8,8,5,5") // cluster B center
	if a.Noise || b.Noise {
		t.Fatalf("cluster centers read as noise: a=%+v b=%+v", a, b)
	}
	if a.Cluster == b.Cluster {
		t.Fatalf("both centers mapped to cluster %d", a.Cluster)
	}
	if len(a.RelevantAxes) == 0 || len(b.RelevantAxes) == 0 {
		t.Fatalf("cluster answers carry no relevant axes: a=%+v b=%+v", a, b)
	}
	if a.ViewSeq == 0 {
		t.Fatal("query answered from a zero-sequence view")
	}

	// POST /query accepts both body shapes.
	for _, body := range []string{`[2,3,2,5,5]`, `{"point":[2,3,2,5,5]}`} {
		w := do(t, h, "POST", "/query", "application/json", []byte(body))
		if w.Code != http.StatusOK {
			t.Fatalf("POST /query %s = %d: %s", body, w.Code, w.Body)
		}
	}

	// Stats reflect the traffic.
	w := do(t, h, "GET", "/stats", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("stats = %d", w.Code)
	}
	var stats statsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.View == nil || stats.View.Points != len(rows) {
		t.Fatalf("stats view = %+v, want %d points", stats.View, len(rows))
	}
	if stats.Counters.BatchesIngested != 2 || stats.Counters.PointsIngested != int64(len(rows)) {
		t.Fatalf("ingest counters = %+v", stats.Counters)
	}
	if stats.Counters.Queries == 0 || stats.Counters.QueriesRejected == 0 {
		t.Fatalf("query counters = %+v", stats.Counters)
	}
}

// TestIngestCSV pins the text/csv ingest path against the JSON one.
func TestIngestCSV(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	var csvBody strings.Builder
	rows := streamRows(10, 50, 7)
	for _, r := range rows {
		for j, v := range r {
			if j > 0 {
				csvBody.WriteByte(',')
			}
			fmt.Fprintf(&csvBody, "%g", v)
		}
		csvBody.WriteByte('\n')
	}
	w := do(t, h, "POST", "/ingest", "text/csv", []byte(csvBody.String()))
	if w.Code != http.StatusOK {
		t.Fatalf("csv ingest = %d: %s", w.Code, w.Body)
	}
	s.mu.Lock()
	eta := pointsOf(s.active)
	s.mu.Unlock()
	if eta != len(rows) {
		t.Fatalf("tree holds %d points after csv ingest, want %d", eta, len(rows))
	}
}

// TestIngestRejectsBadBatches pins the validation contract: malformed
// bodies, wrong dimensionality and out-of-domain values are rejected
// wholesale — the tree never absorbs part of a bad batch.
func TestIngestRejectsBadBatches(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	cases := []struct {
		name, ct, body string
		wantCode       int
	}{
		{"garbage", "application/json", "{", http.StatusBadRequest},
		{"wrong dims", "application/json", "[[1,2,3]]", http.StatusUnprocessableEntity},
		{"below domain", "application/json", "[[1,2,3,4,5],[-0.5,2,3,4,5]]", http.StatusUnprocessableEntity},
		{"above domain", "application/json", "[[1,2,3,4,5],[1,2,3,4,10.5]]", http.StatusUnprocessableEntity},
		{"non-numeric json", "application/json", `[[1,2,3,4,"x"]]`, http.StatusBadRequest},
		{"NaN csv", "text/csv", "1,2,3,4,NaN\n", http.StatusUnprocessableEntity},
		{"bad csv field", "text/csv", "1,2,3,4,x\n", http.StatusBadRequest},
		{"empty", "application/json", "[]", http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		w := do(t, h, "POST", "/ingest", tc.ct, []byte(tc.body))
		if w.Code != tc.wantCode {
			t.Errorf("%s: ingest = %d, want %d (%s)", tc.name, w.Code, tc.wantCode, w.Body)
		}
	}
	s.mu.Lock()
	eta := pointsOf(s.active)
	s.mu.Unlock()
	if eta != 0 {
		t.Fatalf("tree absorbed %d points from rejected batches", eta)
	}
	if got := s.counters.Snapshot().BatchesRejected; got != int64(len(cases)) {
		t.Fatalf("rejected counter = %d, want %d", got, len(cases))
	}
}

// TestWindowRotation pins the two-tree window: the first batch to
// arrive once the active tree holds WindowPoints points retires it to
// the aging slot and starts a fresh active tree, and the published view
// covers both windows.
func TestWindowRotation(t *testing.T) {
	cfg := testConfig()
	cfg.WindowPoints = 500
	s := newTestServer(t, cfg)
	rows := streamRows(10, 400, 13) // 880 rows > WindowPoints

	if _, err := s.ingest(rows); err != nil {
		t.Fatal(err)
	}
	if err := s.recluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.aging != nil || pointsOf(s.active) != len(rows) {
		t.Fatalf("a pass rotated the window: rotation belongs to the next ingest")
	}
	if v := s.cur.Load(); v == nil || v.points != len(rows) {
		t.Fatalf("view covers %v points, want %d", v, len(rows))
	}

	// The next batch rotates the full tree out before it is folded; the
	// merged view covers aging + active.
	more := streamRows(10, 100, 17)
	if _, err := s.ingest(more); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	activeEta, agingEta := pointsOf(s.active), -1
	if s.aging != nil {
		agingEta = pointsOf(s.aging)
	}
	s.mu.Unlock()
	if agingEta != len(rows) || activeEta != len(more) {
		t.Fatalf("after rotation: active=%d aging=%d, want %d / %d", activeEta, agingEta, len(more), len(rows))
	}
	if got := s.counters.Snapshot().Rotations; got != 1 {
		t.Fatalf("rotations = %d, want 1", got)
	}
	if err := s.recluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v := s.cur.Load(); v.points != len(rows)+len(more) {
		t.Fatalf("merged view covers %d points, want %d", v.points, len(rows)+len(more))
	}
}

// TestSnapshotSaveAndWarmStart drives POST /snapshot/save, boots a
// second service from the file, and checks that it publishes an
// equivalent view without any re-ingestion.
func TestSnapshotSaveAndWarmStart(t *testing.T) {
	cfg := testConfig()
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "serve.snap")
	s := newTestServer(t, cfg)
	rows := streamRows(10, 400, 11)
	if _, err := s.ingest(rows); err != nil {
		t.Fatal(err)
	}
	if err := s.recluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := do(t, s.Handler(), "POST", "/snapshot/save", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("snapshot save = %d: %s", w.Code, w.Body)
	}

	warm := newTestServer(t, cfg)
	warm.mu.Lock()
	eta := pointsOf(warm.active)
	warm.mu.Unlock()
	if eta != len(rows) {
		t.Fatalf("warm-started tree holds %d points, want %d", eta, len(rows))
	}
	if err := warm.recluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	cold, fresh := s.cur.Load(), warm.cur.Load()
	if len(fresh.res.Betas) != len(cold.res.Betas) || len(fresh.res.Clusters) != len(cold.res.Clusters) {
		t.Fatalf("warm-started view found %d betas / %d clusters, original %d / %d",
			len(fresh.res.Betas), len(fresh.res.Clusters), len(cold.res.Betas), len(cold.res.Clusters))
	}
	if len(cold.res.Betas) == 0 {
		t.Fatal("degenerate stream: no β-clusters, warm-start equivalence is vacuous")
	}

	// Saving without a configured path is a clean 409, not a 500.
	bare := newTestServer(t, testConfig())
	if w := do(t, bare.Handler(), "POST", "/snapshot/save", "", nil); w.Code != http.StatusConflict {
		t.Fatalf("snapshot save without path = %d, want 409", w.Code)
	}
}

// TestStartPublishesWarmView pins the boot contract: a warm-started
// service answers queries right after Start, with no new ingestion.
func TestStartPublishesWarmView(t *testing.T) {
	cfg := testConfig()
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "serve.snap")
	s := newTestServer(t, cfg)
	if _, err := s.ingest(streamRows(10, 400, 11)); err != nil {
		t.Fatal(err)
	}
	if err := s.recluster(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.saveSnapshot(); err != nil {
		t.Fatal(err)
	}

	warm := newTestServer(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	warm.Start(ctx)
	deadline := time.Now().Add(10 * time.Second)
	for warm.cur.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("warm-started service published no view within 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	w := do(t, warm.Handler(), "GET", "/query?p=2,3,2,5,5", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("query on warm-started service = %d: %s", w.Code, w.Body)
	}
	cancel()
	warm.Wait()
}
