// HTTP surface of the streaming clustering service. Handlers are thin:
// they parse, call into the Server, and encode JSON. The query path is
// deliberately lock-free — it loads the published view once and works
// entirely on that immutable snapshot.
package serve

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mrcc/internal/core"
	"mrcc/internal/obs"
)

// Handler returns the service's HTTP API:
//
//	POST /ingest         point batch (JSON array, {"points": ...}, or text/csv)
//	GET  /query?p=v,...  classify one point against the published view
//	POST /query          same, point in the JSON body
//	GET  /stats          window, view, WAL, checkpoint and counter snapshot
//	POST /recluster      request an immediate re-cluster pass (202)
//	POST /snapshot/save  persist the merged window trees (a checkpoint when the WAL is on)
//	GET  /healthz        liveness (200 once the process serves)
//	GET  /readyz         readiness (200 once recovery finished and a view serves)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /query", s.handleQueryGet)
	mux.HandleFunc("POST /query", s.handleQueryPost)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /recluster", s.handleRecluster)
	mux.HandleFunc("POST /snapshot/save", s.handleSnapshotSave)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to recover
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// parseBatch decodes an ingest body. JSON accepts a bare array of
// points or an object {"points": [[...], ...]}; text/csv accepts one
// point per record, all-numeric fields (no header).
func parseBatch(r *http.Request, maxBody int64) ([][]float64, error) {
	body := http.MaxBytesReader(nil, r.Body, maxBody)
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil && mt == "text/csv" {
		cr := csv.NewReader(body)
		cr.ReuseRecord = true
		var pts [][]float64
		for {
			rec, err := cr.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("csv: %w", err)
			}
			p := make([]float64, len(rec))
			for j, f := range rec {
				v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
				if err != nil {
					return nil, fmt.Errorf("csv record %d field %d: %w", len(pts)+1, j+1, err)
				}
				p[j] = v
			}
			pts = append(pts, p)
		}
		return pts, nil
	}
	dec := json.NewDecoder(body)
	dec.UseNumber()
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("json: %w", err)
	}
	var pts [][]float64
	if err := json.Unmarshal(raw, &pts); err == nil {
		return pts, nil
	}
	var wrapped struct {
		Points [][]float64 `json:"points"`
	}
	if err := json.Unmarshal(raw, &wrapped); err != nil {
		return nil, fmt.Errorf("json: body is neither a point array nor {\"points\": ...}: %w", err)
	}
	return wrapped.Points, nil
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	// Admission control: a bounded number of ingest requests may be in
	// flight; the rest are shed immediately with 429 + Retry-After
	// rather than queueing without bound behind the ingest lock.
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.counters.AddShedded()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "ingest: %d requests already in flight; retry shortly", cap(s.inflight))
			return
		}
	}
	pts, err := parseBatch(r, s.cfg.MaxBodyBytes)
	if err != nil {
		s.counters.AddIngestRejected()
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "ingest: body exceeds the %d-byte limit", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "ingest: %v", err)
		return
	}
	total, err := s.ingest(pts)
	if err != nil {
		s.counters.AddIngestRejected()
		status := http.StatusUnprocessableEntity
		if errors.Is(err, errDurability) {
			// The batch was valid but could not be persisted; the WAL may
			// hold torn bytes, so the service fails ingests until restart.
			status = http.StatusInternalServerError
		}
		writeError(w, status, "ingest: %v", err)
		return
	}
	var seq uint64
	if v := s.cur.Load(); v != nil {
		seq = v.seq
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"accepted":    len(pts),
		"totalPoints": total,
		"viewSeq":     seq,
	})
}

// queryResponse is the answer to one point query, evaluated against
// the immutable published view identified by viewSeq.
type queryResponse struct {
	Cluster      int    `json:"cluster"` // -1 = noise
	Noise        bool   `json:"noise"`
	RelevantAxes []int  `json:"relevantAxes,omitempty"`
	ViewSeq      uint64 `json:"viewSeq"`
	ViewAgeMs    int64  `json:"viewAgeMs"`
	ViewPoints   int    `json:"viewPoints"`
}

func (s *Server) answerQuery(w http.ResponseWriter, p []float64) {
	np, err := s.normalizePoint(p)
	if err != nil {
		s.counters.AddQueryRejected()
		writeError(w, http.StatusUnprocessableEntity, "query: %v", err)
		return
	}
	v := s.cur.Load()
	if v == nil {
		s.counters.AddQueryRejected()
		w.Header().Set("Retry-After", strconv.FormatInt(s.retryAfterSeconds(), 10))
		writeError(w, http.StatusServiceUnavailable, "query: no published clustering view yet (ingest data and wait one re-cluster pass)")
		return
	}
	id := v.labeler.Label(np)
	s.counters.AddQuery(id != core.Noise)
	resp := queryResponse{
		Cluster:    id,
		Noise:      id == core.Noise,
		ViewSeq:    v.seq,
		ViewAgeMs:  time.Since(v.builtAt).Milliseconds(),
		ViewPoints: v.points,
	}
	if id != core.Noise {
		resp.RelevantAxes = v.res.Clusters[id].RelevantAxes()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleQueryGet(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("p")
	if raw == "" {
		s.counters.AddQueryRejected()
		writeError(w, http.StatusBadRequest, "query: missing p=v1,v2,... parameter")
		return
	}
	fields := strings.Split(raw, ",")
	p := make([]float64, len(fields))
	for j, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			s.counters.AddQueryRejected()
			writeError(w, http.StatusBadRequest, "query: p value %d: %v", j+1, err)
			return
		}
		p[j] = v
	}
	s.answerQuery(w, p)
}

func (s *Server) handleQueryPost(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	var raw json.RawMessage
	if err := json.NewDecoder(body).Decode(&raw); err != nil {
		s.counters.AddQueryRejected()
		writeError(w, http.StatusBadRequest, "query: json: %v", err)
		return
	}
	var p []float64
	if err := json.Unmarshal(raw, &p); err != nil {
		var wrapped struct {
			Point []float64 `json:"point"`
		}
		if err := json.Unmarshal(raw, &wrapped); err != nil {
			s.counters.AddQueryRejected()
			writeError(w, http.StatusBadRequest, "query: body is neither a point array nor {\"point\": ...}")
			return
		}
		p = wrapped.Point
	}
	s.answerQuery(w, p)
}

// retryAfterSeconds is the Retry-After hint for clients that arrived
// before the first view: one re-cluster cadence (rounded up), or 1s
// when only the point-count trigger is configured.
func (s *Server) retryAfterSeconds() int64 {
	if s.cfg.ReclusterEvery > 0 {
		if secs := int64((s.cfg.ReclusterEvery + time.Second - 1) / time.Second); secs > 1 {
			return secs
		}
	}
	return 1
}

// handleReadyz reports readiness for load-balancer rotation: 200 once
// warm-start recovery (snapshot load + WAL replay, both of which
// complete inside New before the handler can exist) has finished AND
// either a view is published or nothing has been ingested yet. An
// instance with data but no view is still recovering its query surface
// and answers 503. Re-cluster failures do not flip readiness — the
// last good view keeps serving — but they are surfaced as staleness.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	v := s.cur.Load()
	s.mu.Lock()
	total := s.totalPoints
	s.mu.Unlock()
	fails := s.reclusterFails.Load()
	resp := map[string]any{
		"viewPublished":                v != nil,
		"consecutiveReclusterFailures": fails,
		"stale":                        fails > 0,
	}
	if v != nil {
		resp["viewAgeMs"] = time.Since(v.builtAt).Milliseconds()
	}
	if lastErr := s.lastReclusterErr.Load(); lastErr != nil && fails > 0 {
		resp["lastReclusterError"] = *lastErr
	}
	if ready := v != nil || total == 0; !ready {
		resp["ready"] = false
		w.Header().Set("Retry-After", strconv.FormatInt(s.retryAfterSeconds(), 10))
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	resp["ready"] = true
	writeJSON(w, http.StatusOK, resp)
}

// statsResponse is the GET /stats document.
type statsResponse struct {
	UptimeMs int64 `json:"uptimeMs"`
	Dims     int   `json:"dims"`
	H        int   `json:"h"`
	Window   struct {
		ActivePoints int `json:"activePoints"`
		AgingPoints  int `json:"agingPoints"`
		WindowPoints int `json:"windowPoints"`
	} `json:"window"`
	TreeBytes uint64              `json:"treeBytes"`
	View      *viewInfo           `json:"view"`          // null before the first pass
	WAL       *walInfo            `json:"wal,omitempty"` // null unless WALDir is configured
	Recluster reclusterInfo       `json:"recluster"`
	Counters  obs.ServiceSnapshot `json:"counters"`
}

// walInfo is the durability block of GET /stats: log position,
// segment footprint and checkpoint freshness.
type walInfo struct {
	LastSeq         uint64 `json:"lastSeq"`    // newest appended record
	AppliedSeq      uint64 `json:"appliedSeq"` // newest record folded into the tree
	Segments        int    `json:"segments"`
	CheckpointSeq   uint64 `json:"checkpointSeq"`   // WAL coverage of the last checkpoint
	CheckpointAgeMs int64  `json:"checkpointAgeMs"` // -1 = never checkpointed
}

// reclusterInfo surfaces re-cluster health: a non-zero failure count
// means the published view is going stale while the loop backs off.
type reclusterInfo struct {
	ConsecutiveFailures int64  `json:"consecutiveFailures"`
	LastError           string `json:"lastError,omitempty"`
}

type viewInfo struct {
	Seq       uint64 `json:"seq"`
	AgeMs     int64  `json:"ageMs"`
	Points    int    `json:"points"`
	Betas     int    `json:"betas"`
	Clusters  int    `json:"clusters"`
	TreeBytes uint64 `json:"treeBytes"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp statsResponse
	resp.UptimeMs = time.Since(s.started).Milliseconds()
	resp.Dims = s.cfg.Dims
	resp.H = s.cfg.H
	s.mu.Lock()
	resp.Window.ActivePoints = pointsOf(s.active)
	resp.Window.AgingPoints = pointsOf(s.aging)
	for _, t := range s.window() {
		resp.TreeBytes += t.MemoryBytes()
	}
	appliedSeq := s.appliedSeq
	s.mu.Unlock()
	resp.Window.WindowPoints = s.cfg.WindowPoints
	if s.wal != nil {
		_, _, segments := s.wal.Stats()
		wi := &walInfo{
			LastSeq:         s.wal.LastSeq(),
			AppliedSeq:      appliedSeq,
			Segments:        segments,
			CheckpointSeq:   s.ckptSeq.Load(),
			CheckpointAgeMs: -1,
		}
		if nano := s.ckptNano.Load(); nano > 0 {
			wi.CheckpointAgeMs = time.Since(time.Unix(0, nano)).Milliseconds()
		}
		resp.WAL = wi
	}
	resp.Recluster.ConsecutiveFailures = s.reclusterFails.Load()
	if lastErr := s.lastReclusterErr.Load(); lastErr != nil && resp.Recluster.ConsecutiveFailures > 0 {
		resp.Recluster.LastError = *lastErr
	}
	if v := s.cur.Load(); v != nil {
		resp.View = &viewInfo{
			Seq:       v.seq,
			AgeMs:     time.Since(v.builtAt).Milliseconds(),
			Points:    v.points,
			Betas:     len(v.res.Betas),
			Clusters:  len(v.res.Clusters),
			TreeBytes: v.treeBytes,
		}
	}
	resp.Counters = s.counters.Snapshot()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRecluster(w http.ResponseWriter, r *http.Request) {
	s.Kick()
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "recluster requested"})
}

func (s *Server) handleSnapshotSave(w http.ResponseWriter, r *http.Request) {
	n, err := s.saveSnapshot()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, errNoSnapshotPath) || errors.Is(err, errNothingIngested) {
			status = http.StatusConflict
		}
		writeError(w, status, "snapshot: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"bytes": n,
		"path":  s.cfg.SnapshotPath,
	})
}
