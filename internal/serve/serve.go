// Package serve turns the MrCC library into a long-running streaming
// clustering service: point batches are ingested over HTTP, each built
// into a small immutable Counting-tree (a run) and merged with its
// neighbors as runs pile up, a background loop re-runs the β-search on
// a cadence (or after enough new points) over the runs side by side,
// and every completed pass publishes an immutable view —
// the clustering Result plus query metadata — behind an
// atomic.Pointer. Queries classify points against the current view
// RCU-style: they never take the ingest lock, never observe a
// half-built Result, and a view swap is one pointer store.
//
// The paper's conclusion observes that MrCC's statistical test gets
// stronger as data accumulates; the service adds the complementary
// mechanism for data that *drifts*: a two-part window (active + aging)
// rotated when the active runs reach a configured point count, so
// published models track the most recent 1–2 windows of the stream
// instead of its whole history. See DESIGN.md §11.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/obs"
	"mrcc/internal/treeio"
	"mrcc/internal/wal"
)

// Config declares the service's fixed contract: the dimensionality and
// value domain every ingested point is validated against, the
// clustering parameters, and the re-cluster / rotation policy. The
// domain is declared up front (not inferred from data) because a
// streaming normalizer that rescales as extremes arrive would silently
// shift every previously counted point's cell — the tree is only
// meaningful under one fixed affine embedding.
type Config struct {
	// Dims is the dimensionality every ingested or queried point must
	// have. Required.
	Dims int
	// Min and Max declare the per-axis value domain: ingested values
	// must lie in [Min[j], Max[j]]. Nil selects the unit interval for
	// every axis (data already normalized). Length must equal Dims,
	// Max[j] must exceed Min[j], and both the width Max[j]−Min[j] and
	// the scale 1/(Max[j]−Min[j]) must be finite, so every in-domain
	// value normalizes into [0,1).
	Min, Max []float64
	// H, Alpha and Workers configure the clustering runs (zero values
	// select the paper's defaults, as in core.Config).
	H       int
	Alpha   float64
	Workers int
	// MaxBetaClusters caps the β-cluster count per re-cluster pass
	// (safety valve; 0 = unlimited).
	MaxBetaClusters int
	// ReclusterEvery re-runs the β-search on this cadence. Zero
	// disables the timer (re-clustering then happens only via
	// ReclusterPoints or POST /recluster).
	ReclusterEvery time.Duration
	// ReclusterPoints re-runs the β-search once this many new points
	// arrived since the last pass. Zero disables the trigger.
	ReclusterPoints int
	// WindowPoints bounds the active runs: the first batch to arrive
	// once they hold this many points rotates them into the aging slot
	// (whose previous runs are dropped) and starts fresh active runs.
	// Published views are built from the union of aging and active, so
	// the model always reflects the last one-to-two windows of the
	// stream. Zero disables windowing (the runs accumulate the whole
	// stream). The two sides together can hold
	// 2·(WindowPoints + MaxBatchPoints − 1) points, which must not
	// exceed ctree.MaxPoints.
	WindowPoints int
	// SnapshotPath, when non-empty, is the tree snapshot the service
	// warm-starts from on boot (when the file exists), writes on POST
	// /snapshot/save, and saves a final time on graceful shutdown.
	SnapshotPath string
	// WALDir, when non-empty, enables the write-ahead ingest log:
	// every accepted batch is appended (and, per WALSync, fsynced)
	// before it is folded into the tree, and warm-start replays the
	// log tail past the snapshot's checkpoint sequence — an
	// acknowledged batch survives a crash. See DESIGN.md §13.
	WALDir string
	// WALSync selects the log's fsync policy: "interval" (default —
	// fsync at most once per WALSyncEvery), "always" (fsync every
	// append before acknowledging), or "none" (leave it to the OS).
	WALSync string
	// WALSyncEvery bounds the data-loss window under the "interval"
	// policy (default 100ms).
	WALSyncEvery time.Duration
	// WALSegmentBytes rotates the log to a fresh segment once the
	// active one reaches this size (default 64 MB).
	WALSegmentBytes int64
	// CheckpointEvery saves a checkpoint snapshot and truncates the
	// covered WAL segments on this cadence, bounding replay time after
	// a crash. Requires both WALDir and SnapshotPath. Zero disables
	// the timer (checkpoints then happen only via POST /snapshot/save
	// and on graceful shutdown).
	CheckpointEvery time.Duration
	// MaxInFlight bounds concurrently processed ingest requests;
	// excess requests are shed with 429 + Retry-After instead of
	// queueing without bound (default 64; negative disables the gate).
	MaxInFlight int
	// MaxBatchPoints caps the points accepted per ingest request
	// (default 100000); MaxBodyBytes caps the request body (default
	// 64 MB).
	MaxBatchPoints int
	MaxBodyBytes   int64
	// Logf, when non-nil, receives service log lines (boot, rotation,
	// re-cluster failures, shutdown).
	Logf func(format string, args ...any)
}

// withDefaults resolves zero config fields.
func (c Config) withDefaults() Config {
	if c.H == 0 {
		c.H = core.DefaultH
	}
	if c.Alpha == 0 {
		c.Alpha = core.DefaultAlpha
	}
	if c.MaxBatchPoints == 0 {
		c.MaxBatchPoints = 100000
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.WALSync == "" {
		c.WALSync = "interval"
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	return c
}

// validate checks the config and returns its declared domain's
// embedding, nil for the unit domain.
func (c Config) validate() (*dataset.Domain, error) {
	if c.Dims < 1 || c.Dims > ctree.MaxDims {
		return nil, fmt.Errorf("serve: Dims must be in [1, %d], got %d", ctree.MaxDims, c.Dims)
	}
	if (c.Min == nil) != (c.Max == nil) {
		return nil, errors.New("serve: Min and Max must be declared together")
	}
	var dom *dataset.Domain
	if c.Min != nil {
		if len(c.Min) != c.Dims || len(c.Max) != c.Dims {
			return nil, fmt.Errorf("serve: domain has %d/%d bounds, want %d", len(c.Min), len(c.Max), c.Dims)
		}
		// A width that overflows, or one so small that its scale does,
		// would normalize the domain's edges to NaN (0·Inf or Inf·0)
		// after the WAL append, and replay would fail on it.
		var err error
		if dom, err = dataset.NewDomain(c.Min, c.Max); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	if c.H < ctree.MinLevels || c.H > ctree.MaxLevels {
		return nil, fmt.Errorf("serve: H must be in [%d, %d], got %d", ctree.MinLevels, ctree.MaxLevels, c.H)
	}
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return nil, fmt.Errorf("serve: Alpha must be in (0,1), got %g", c.Alpha)
	}
	if c.ReclusterEvery < 0 || c.ReclusterPoints < 0 || c.WindowPoints < 0 {
		return nil, errors.New("serve: re-cluster and window thresholds must be >= 0")
	}
	if c.ReclusterEvery == 0 && c.ReclusterPoints == 0 {
		return nil, errors.New("serve: at least one of ReclusterEvery and ReclusterPoints must be set")
	}
	// Rotation fires on the first batch after the active runs fill, so
	// either side of the window can hold WindowPoints + MaxBatchPoints - 1
	// points. A window whose two sides can outgrow ctree.MaxPoints
	// together could not be clustered or checkpointed as one.
	if most := 2 * (int64(c.WindowPoints) + int64(c.MaxBatchPoints) - 1); c.WindowPoints > 0 && most > int64(ctree.MaxPoints) {
		return nil, fmt.Errorf("serve: WindowPoints %d with MaxBatchPoints %d lets the window hold %d points, past ctree.MaxPoints (%d)",
			c.WindowPoints, c.MaxBatchPoints, most, ctree.MaxPoints)
	}
	if c.WALDir != "" {
		if _, err := wal.ParseSyncPolicy(c.WALSync); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	if c.CheckpointEvery < 0 {
		return nil, errors.New("serve: CheckpointEvery must be >= 0")
	}
	if c.CheckpointEvery > 0 && (c.WALDir == "" || c.SnapshotPath == "") {
		return nil, errors.New("serve: CheckpointEvery requires both WALDir and SnapshotPath")
	}
	return dom, nil
}

// view is one published clustering snapshot: everything a query needs,
// all of it immutable after the atomic.Pointer store that publishes
// it. Readers obtain the whole view with one Load and never see a
// partially filled one — the happens-before edge of the atomic store
// covers every field written before it.
type view struct {
	seq       uint64
	builtAt   time.Time
	points    int    // η the view was clustered from
	treeBytes uint64 // footprint of what the pass held: the level index, and the clone of a one-tree window
	res       *core.Result
	// labeler classifies queries by res's β-clusters: it is the
	// pipeline's own labeler (core.Labeler), built once at publish, so
	// a query answers what a run labeling the window's points would
	// have labeled the point.
	labeler *core.Labeler
}

// Server is the streaming clustering service. Create one with New,
// start its re-cluster loop with Start (or use Run, which also serves
// HTTP), and mount Handler on any mux.
type Server struct {
	cfg      Config
	dom      *dataset.Domain // the declared domain's embedding; nil for the unit domain
	counters obs.ServiceCounters
	started  time.Time

	// mu guards the window's runs and the re-cluster bookkeeping.
	// Queries never take it — they read the published view only. Every
	// run is immutable once stored, so a pass or a snapshot copies the
	// two slices under mu and reads the runs without it, and an ingest
	// holds it only to read the active runs and to swap in the new list
	// (see apply): it builds and merges runs without it.
	mu          sync.Mutex
	active      ctree.Runs // the current window's runs, oldest first; receive all ingestion (see apply)
	aging       ctree.Runs // the previous window's runs, one once a pass united them; nil until first rotation (see apply)
	sinceRecl   int        // points folded since the last re-cluster snapshot (replayed ones too, until the first pass)
	totalPoints int64      // lifetime accepted points (survives rotation drops)
	appliedSeq  uint64     // last WAL sequence folded into the window

	// ingestMu serializes the fold steps (apply), and in the durable
	// path each WAL append with its fold, so log order is exactly apply
	// order and the active runs change only under it. Every ingest takes
	// it, always before mu; it is held across the batch's build, the run
	// merges and the append, never across clustering.
	ingestMu sync.Mutex
	wal      *wal.Log      // nil unless Config.WALDir is set
	inflight chan struct{} // ingest admission semaphore; nil = unbounded

	kick chan struct{} // re-cluster trigger, capacity 1
	cur  atomic.Pointer[view]
	seq  atomic.Uint64

	// Re-cluster failure containment: consecutive failure count (zeroed
	// by the next success) and the last failure text, surfaced via
	// /stats and /readyz while the last good view keeps serving.
	reclusterFails   atomic.Int64
	lastReclusterErr atomic.Pointer[string]
	backoffBase      time.Duration // first retry delay after a failure

	// ckptMu serializes the checkpoint save-then-truncate protocol
	// across the timer loop, POST /snapshot/save and the shutdown
	// epilogue (see checkpoint in durable.go). Taken before mu, never
	// held by the ingest or query paths.
	ckptMu sync.Mutex
	// Last completed checkpoint: covered WAL sequence and wall-clock
	// (unix nanos; 0 = never), for /stats checkpoint age.
	ckptSeq  atomic.Uint64
	ckptNano atomic.Int64

	loopDone chan struct{}
	ckptDone chan struct{}
}

// New validates the config and assembles the service. When
// Config.SnapshotPath names an existing snapshot, it warm-starts as the
// first active run (geometry checked) and the first re-cluster pass
// publishes a view for it right after Start — a restarted service
// answers queries without re-ingesting its history. With a WALDir
// configured, the log tail past the snapshot's checkpoint sequence is
// replayed on top before New returns, so the recovered window holds
// every acknowledged batch; a plain (trailer-less) snapshot replays
// the whole log.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	dom, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		kick:        make(chan struct{}, 1),
		loopDone:    make(chan struct{}),
		ckptDone:    make(chan struct{}),
		backoffBase: 250 * time.Millisecond,
		started:     time.Now(),
		dom:         dom,
	}
	var ckptSeq uint64
	if cfg.SnapshotPath != "" {
		if _, err := os.Stat(cfg.SnapshotPath); err == nil {
			t, meta, err := treeio.LoadFile(cfg.SnapshotPath, treeio.LoadOptions{})
			if err != nil {
				return nil, fmt.Errorf("serve: warm-start snapshot: %w", err)
			}
			if t.D != cfg.Dims || t.H != cfg.H {
				return nil, fmt.Errorf("serve: warm-start snapshot geometry (d=%d, H=%d) does not match the declared service (d=%d, H=%d)",
					t.D, t.H, cfg.Dims, cfg.H)
			}
			s.active = ctree.Runs{t}
			s.totalPoints = int64(t.Eta)
			if meta.HasSeq {
				ckptSeq = meta.Seq
				s.ckptSeq.Store(ckptSeq)
			}
			s.logf("warm-start: loaded %d points (%d cells) from %s (checkpoint seq %d)", t.Eta, t.CellCount(), cfg.SnapshotPath, ckptSeq)
		} else if !os.IsNotExist(err) {
			return nil, fmt.Errorf("serve: warm-start snapshot: %w", err)
		}
	}
	if cfg.WALDir != "" {
		if err := s.openWAL(ckptSeq); err != nil {
			return nil, fmt.Errorf("serve: wal: %w", err)
		}
	}
	if cfg.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInFlight)
	}
	return s, nil
}

// Close releases the service's durable resources (the WAL handle).
// Run calls it on the way out; embedders that drive Start/Wait
// directly should call it once the loops exited.
func (s *Server) Close() error {
	if s.wal != nil {
		return s.wal.Close()
	}
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// normalizePoint validates one point in domain units and returns its
// [0,1)^d embedding. The input slice is not retained.
func (s *Server) normalizePoint(p []float64) ([]float64, error) {
	if len(p) != s.cfg.Dims {
		return nil, fmt.Errorf("point has %d values, want %d", len(p), s.cfg.Dims)
	}
	out := make([]float64, len(p))
	if s.dom != nil {
		if err := s.dom.Embed(out, p); err != nil {
			return nil, err
		}
		return out, nil
	}
	for j, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("axis %d value is not finite", j)
		}
		if v < 0 || v >= 1 {
			return nil, fmt.Errorf("axis %d value %g outside the declared domain [0, 1)", j, v)
		}
		out[j] = v
	}
	return out, nil
}

// ingest validates and normalizes a batch and folds it into the active
// runs under ingestMu, then decides whether the new-points trigger
// fires. It returns the lifetime accepted total. With a WAL configured
// the fold goes through the durable path (append first, fold second —
// see durable.go).
func (s *Server) ingest(points [][]float64) (int64, error) {
	if len(points) == 0 {
		return 0, errors.New("empty batch")
	}
	if len(points) > s.cfg.MaxBatchPoints {
		return 0, fmt.Errorf("batch holds %d points, the per-request maximum is %d", len(points), s.cfg.MaxBatchPoints)
	}
	norm := make([][]float64, len(points))
	for i, p := range points {
		np, err := s.normalizePoint(p)
		if err != nil {
			return 0, fmt.Errorf("point %d: %w", i, err)
		}
		norm[i] = np
	}
	if s.wal != nil {
		return s.ingestDurable(norm)
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	return s.fold(norm, 0)
}

// fold counts a normalized batch into the window (apply), then counts
// the ingest, fires the new-points trigger when the points folded since
// the last pass reach it, and returns the lifetime accepted total. The
// caller holds ingestMu.
func (s *Server) fold(norm [][]float64, seq uint64) (int64, error) {
	if _, err := s.apply(norm, seq); err != nil {
		return 0, err
	}
	s.mu.Lock()
	total, pending := s.totalPoints, s.sinceRecl
	s.mu.Unlock()
	s.counters.AddIngest(len(norm))
	if s.cfg.ReclusterPoints > 0 && pending >= s.cfg.ReclusterPoints {
		s.Kick()
	}
	return total, nil
}

// Kick requests a re-cluster pass as soon as the loop is free. It
// never blocks: a pass is already pending when the buffer is full.
func (s *Server) Kick() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Start launches the re-cluster loop (and, when configured, the
// checkpoint loop); both stop when ctx is cancelled (Wait blocks until
// then). A warm-started window gets an immediate first pass so the
// service answers queries right after boot.
func (s *Server) Start(ctx context.Context) {
	s.mu.Lock()
	warm := s.active.Points() > 0
	s.mu.Unlock()
	if warm {
		s.Kick()
	}
	go s.loop(ctx)
	if s.wal != nil && s.cfg.CheckpointEvery > 0 {
		go s.checkpointLoop(ctx)
	} else {
		close(s.ckptDone)
	}
}

// Wait blocks until the re-cluster and checkpoint loops exited.
func (s *Server) Wait() {
	<-s.loopDone
	<-s.ckptDone
}

// loop is the re-cluster scheduler: one goroutine serializes window
// rotation and clustering, so the HTTP paths never run the pipeline.
//
// A failed pass is contained, not fatal: the last good view keeps
// serving queries, the failure count is surfaced via /stats and
// /readyz, and the loop backs off exponentially (backoffBase doubling
// up to 64×) before retrying — triggers arriving inside the backoff
// window are absorbed, so a persistently failing pipeline cannot spin
// the CPU. The next success zeroes the backoff.
func (s *Server) loop(ctx context.Context) {
	defer close(s.loopDone)
	var tick <-chan time.Time
	if s.cfg.ReclusterEvery > 0 {
		t := time.NewTicker(s.cfg.ReclusterEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
		case <-s.kick:
		}
		err := s.recluster(ctx)
		if err == nil {
			s.reclusterFails.Store(0)
			continue
		}
		if ctx.Err() != nil {
			return
		}
		fails := s.reclusterFails.Add(1)
		msg := err.Error()
		s.lastReclusterErr.Store(&msg)
		shift := fails - 1
		if shift > 6 {
			shift = 6
		}
		delay := s.backoffBase << shift
		s.logf("recluster failed (attempt %d, retrying in %v): %v", fails, delay, err)
		select {
		case <-ctx.Done():
			return
		case <-time.After(delay):
		}
		s.Kick()
	}
}

// windowFull reports whether the active runs hold WindowPoints points,
// so the next batch starts a fresh window. The caller holds mu.
func (s *Server) windowFull() bool {
	return s.cfg.WindowPoints > 0 && s.active.Points() >= s.cfg.WindowPoints
}

// checkRoom refuses a batch of n points that would push the active
// runs past ctree.MaxPoints; a batch that starts a fresh window has
// all of it. The caller holds mu.
func (s *Server) checkRoom(n int) error {
	room := ctree.MaxPoints
	if !s.windowFull() {
		room -= s.active.Points()
	}
	if n > room {
		return fmt.Errorf("batch of %d points exceeds the active runs' remaining capacity %d", n, room)
	}
	return nil
}

// window returns the window's trees, the active runs and then the aging
// ones, in a slice of the caller's own. The caller holds mu.
func (s *Server) window() ctree.Runs {
	return append(slices.Clone(s.active), s.aging...)
}

// apply is the window's one fold step, which ingest and WAL replay
// share. Under mu it reads the active runs and whether they fill the
// window, which then rotates. Without mu it adds the batch to them
// (ctree.Runs.Add, which validates every point and checks the room
// under ctree.MaxPoints first, then builds the batch into a run and
// unites the newest runs by size), or to an empty list when the window
// rotates. Under mu again it swaps the new list in, retiring a full
// window's runs into the aging slot (dropping the previous aging runs),
// records seq as the applied WAL sequence (0 without a log, where
// appliedSeq stays 0) and adds the batch to the point totals. So a
// pass, /stats or a snapshot never waits behind a build or a merge. It
// reports whether it rotated. A refused batch — an invalid point, or
// one that would push the active runs past ctree.MaxPoints — leaves the
// window untouched. The caller holds ingestMu, so no other fold changes
// the active runs between the two holds of mu; replay runs before the
// service takes traffic.
//
// Every batch, ingested or replayed, rotates by this rule, and the
// runs' shape depends only on the batch sizes, so a service recovered
// by replay alone holds exactly the window the live one did. A
// checkpoint does not keep that split: it saves the merged window,
// which warm-starts as one active run, so the first replayed batch
// retires the whole merged window and later windows differ from the
// live ones.
func (s *Server) apply(norm [][]float64, seq uint64) (rotated bool, err error) {
	s.mu.Lock()
	runs, rotated := s.active, s.windowFull()
	s.mu.Unlock()
	if rotated {
		runs = nil
	}
	if runs, err = runs.Add(norm, s.cfg.Dims, s.cfg.H); err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if rotated {
		s.aging = s.active
		s.counters.AddRotation()
	}
	s.active = runs
	s.appliedSeq = seq
	s.totalPoints += int64(len(norm))
	s.sinceRecl += len(norm)
	return rotated, nil
}

// snapshotTrees captures the clustering input: the window's runs, taken
// under mu and shared with the pass, not copied, since no run changes
// once stored and a pass writes nothing it reads. A window that is one
// tree is cloned instead, for one reason: a run over one tree caches
// its level index on it, and on the clone the index goes when the pass
// ends rather than living on with the window's tree. The first pass
// after a rotation unites the retired runs into one aging tree, outside
// the lock, and swaps it in under the lock unless a later rotation
// dropped them meanwhile, so later passes and snapshots read one aging
// tree; retired is the points of the aging tree this call swapped in, 0
// when it swapped none.
func (s *Server) snapshotTrees() (trees ctree.Runs, retired int) {
	s.mu.Lock()
	runs := s.aging
	s.mu.Unlock()
	if len(runs) > 1 {
		if aging, err := ctree.Union(runs...); err != nil {
			// Unreachable for runs that counted their points; the pass
			// reads the retired runs side by side instead.
			s.logf("uniting the retired runs: %v", err)
		} else {
			s.mu.Lock()
			if slices.Equal(s.aging, runs) {
				s.aging, retired = ctree.Runs{aging}, aging.Eta
			}
			s.mu.Unlock()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sinceRecl = 0
	trees = s.window()
	if len(trees) == 1 {
		trees[0] = trees[0].Clone()
	}
	return trees, retired
}

// recluster runs one β-search pass over the window's trees and
// publishes the result as the new query view. The search reads the
// level index of the union of the active runs and the aging tree
// (core.Run over all of them), so no pass writes a merged tree. The
// pass runs entirely outside the ingest lock; the publish is one atomic
// pointer store.
func (s *Server) recluster(ctx context.Context) error {
	trees, retired := s.snapshotTrees()
	if retired > 0 {
		s.logf("window rotated: %d points retired to the aging slot", retired)
	}
	points, shared := trees.Points(), uint64(0)
	if len(trees) > 1 {
		shared = trees.MemoryBytes()
	}
	if points == 0 {
		return nil // nothing ingested yet; keep whatever view exists
	}
	res, err := core.Run(ctx, core.Input{Trees: trees}, core.Config{
		Alpha:           s.cfg.Alpha,
		H:               s.cfg.H,
		Workers:         s.cfg.Workers,
		MaxBetaClusters: s.cfg.MaxBetaClusters,
	})
	if err != nil {
		s.counters.AddRecluster(false)
		return err
	}
	v := &view{
		seq:     s.seq.Add(1),
		builtAt: time.Now(),
		points:  points,
		// The run's footprint counts every tree it read; shared runs are
		// the server's, held between passes, not the pass's.
		treeBytes: res.TreeMemoryBytes - shared,
		res:       res,
		labeler:   core.NewLabeler(res.Betas, res.Clusters, s.cfg.Dims),
	}
	s.cur.Store(v)
	s.counters.AddRecluster(true)
	return nil
}

var (
	errNoSnapshotPath  = errors.New("no snapshot path configured")
	errNothingIngested = errors.New("nothing ingested yet")
)

// saveSnapshot persists the merged window to the configured
// snapshot path (treeio's atomic, durable SaveFile). It is what POST
// /snapshot/save and the shutdown epilogue run. With a WAL configured
// it is a full checkpoint: the snapshot carries the applied sequence
// and the covered log segments are truncated.
func (s *Server) saveSnapshot() (int64, error) {
	if s.cfg.SnapshotPath == "" {
		return 0, errNoSnapshotPath
	}
	if s.wal != nil {
		return s.checkpoint()
	}
	n, _, err := s.saveWindow()
	return n, err
}

// saveWindow captures the window — its runs and, with a WAL, the
// applied sequence, both under one mu hold, so the snapshot declares
// exactly the batches it contains — and saves it as one tree, the
// Union of the runs, which is Build's tree of the same points byte for
// byte, to the snapshot path, with the sequence in a checkpoint trailer
// when a WAL is configured. An empty window is refused. It returns the
// bytes written and the covered sequence.
func (s *Server) saveWindow() (int64, uint64, error) {
	s.mu.Lock()
	trees, seq := s.window(), s.appliedSeq
	s.mu.Unlock()
	if trees.Points() == 0 {
		return 0, 0, errNothingIngested
	}
	merged, err := ctree.Union(trees...)
	if err != nil {
		return 0, 0, err
	}
	meta := treeio.Meta{Seq: seq, HasSeq: s.wal != nil}
	n, err := treeio.SaveFile(s.cfg.SnapshotPath, merged, meta)
	if err != nil {
		return 0, 0, err
	}
	s.counters.AddSnapshotSave(n)
	return n, seq, nil
}

// Run serves the service on l until ctx is cancelled, then shuts down
// gracefully: in-flight requests drain (bounded by grace, default 5s
// when zero), the re-cluster and checkpoint loops stop, and — when a
// snapshot path is configured and data arrived — a final snapshot (a
// full checkpoint when the WAL is on) is saved so the next boot
// warm-starts where this process left off. The embedded http.Server
// carries read/header/idle deadlines so a stalled or byte-dribbling
// client cannot pin a connection forever.
func (s *Server) Run(ctx context.Context, l net.Listener, grace time.Duration) error {
	if grace <= 0 {
		grace = 5 * time.Second
	}
	loopCtx, stopLoop := context.WithCancel(context.Background())
	defer stopLoop()
	s.Start(loopCtx)
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		shutdownErr <- srv.Shutdown(sctx)
	}()
	err := srv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		err = <-shutdownErr
	}
	stopLoop()
	s.Wait()
	if s.cfg.SnapshotPath != "" {
		if n, serr := s.saveSnapshot(); serr == nil {
			s.logf("shutdown: saved %d-byte snapshot to %s", n, s.cfg.SnapshotPath)
		} else {
			s.logf("shutdown: snapshot not saved: %v", serr)
		}
	}
	if cerr := s.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}
