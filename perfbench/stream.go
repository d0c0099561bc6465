package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/eval"
	"mrcc/internal/serve"
	"mrcc/internal/synthetic"
)

// streamSpec fixes a stream workload: how the service is configured
// and the open-loop load the generator sends it.
type streamSpec struct {
	name                         string
	window, reclusterPoints      int
	walSync                      string
	batchPoints                  int
	batchesPerSec, queriesPerSec float64
	// drift is how far each cluster's centre moves per 100k points of
	// the stream (0 = stationary).
	drift float64
	// boots is how many times set-up runs; set-up time is the median.
	boots int
	// passes is how many re-cluster passes of the settled window are
	// timed after the load, for the clustering cost.
	passes int
}

// growSpec: a cold service ingesting large batches while its two-tree
// window re-clusters back to back.
var growSpec = streamSpec{
	name: "stream-grow", window: 100000, reclusterPoints: 5000, walSync: "interval",
	batchPoints: 1000, batchesPerSec: 10, queriesPerSec: 200, drift: 0.03, boots: 51, passes: 7,
}

const (
	streamDims     = 15
	streamClusters = 10
	// pollEvery is the /stats polling period. A view's publish time
	// comes from its reported age, so it is known to a millisecond
	// whatever the period; the period bounds how stale the sent-points
	// bound used to decide a view's contents can be.
	pollEvery = 20 * time.Millisecond
	// healthEvery: every n-th poll also times GET /healthz.
	healthEvery = 10
	// quietPoll is the /stats polling period while passes are timed
	// with no load running: often enough to place a publish within 1%
	// of a pass, seldom enough to cost under 2% of one core.
	quietPoll = 10 * time.Millisecond
	// bootCalibRounds is how many calibration rounds a stream run makes,
	// spread over its boots; passCalibRounds more run before each timed
	// pass.
	bootCalibRounds = 6
	passCalibRounds = 2
	// probeQueries is how many window points, evenly spaced, the final
	// answer check queries; their answers are also what the stream
	// workloads' quality is scored on.
	probeQueries = 2000
)

// driftStream is the stream workload's input: one fixed dataset of
// MrCC's synthetic generator (15 axes, 10 subspace clusters, 15% noise)
// with every cluster's centre moving along a fixed direction of its
// relevant axes as the stream advances, then reordered by the run's
// seed: the points shuffled within each block of one ingest batch. So
// every seed sends different requests, but each batch holds the same
// points, and the trees, windows and passes a run measures do the same
// work whatever the seed. Points are taken in order.
type driftStream struct {
	pts      [][]float64
	labels   []int
	relevant [][]bool
	next     int
}

// streamLayoutSeed fixes the stream dataset's cluster layout; the run's
// seed varies everything else.
const streamLayoutSeed = 15

func newDriftStream(seed int64, n, block int, drift float64) (*driftStream, error) {
	ds, gt, err := synthetic.Generate(synthetic.Config{
		Dims: streamDims, Points: n, Clusters: streamClusters, NoiseFrac: 0.15,
		MinClusterDim: 5, MaxClusterDim: streamDims, Seed: streamLayoutSeed,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(streamLayoutSeed))
	dir := make([][]float64, streamClusters)
	for k := range dir {
		dir[k] = make([]float64, streamDims)
		for j := range dir[k] {
			if gt.Relevant[k][j] {
				dir[k][j] = float64(2*rng.Intn(2) - 1)
			}
		}
	}
	for i, p := range ds.Points {
		k := gt.Labels[i]
		if k < 0 {
			continue
		}
		shift := drift * float64(i) / 100000
		for j := range p {
			p[j] = math.Min(math.Max(p[j]+shift*dir[k][j], 0), 1-1e-9)
		}
	}
	reorder(rand.New(rand.NewSource(seed)), ds.Points, gt, block)
	return &driftStream{pts: ds.Points, labels: gt.Labels, relevant: gt.Relevant}, nil
}

func (s *driftStream) take(n int) [][]float64 {
	b := s.pts[s.next : s.next+n]
	s.next += n
	return b
}

// encodeCSV renders points as a text/csv ingest body.
func encodeCSV(pts [][]float64) []byte {
	var b []byte
	for _, p := range pts {
		for j, v := range p {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, '\n')
	}
	return b
}

func queryPath(p []float64) string {
	b := []byte("/query?p=")
	for j, v := range p {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return string(b)
}

// conn is one HTTP/1.1 keep-alive connection to the service: requests
// on it are sequential.
type conn struct {
	base string
	c    *http.Client
}

func newConn(base string) *conn {
	return &conn{base: base, c: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   time.Minute,
	}}
}

func (c *conn) do(method, path, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *conn) get(path string) (int, []byte, error) { return c.do(http.MethodGet, path, "", nil) }

// viewDoc is the view block of GET /stats.
type viewDoc struct {
	Seq                     uint64
	AgeMs                   int64
	Points, Betas, Clusters int
}

// statsDoc is the part of GET /stats the benchmark reads.
type statsDoc struct {
	Window struct {
		ActivePoints, AgingPoints int
	}
	View *viewDoc
	WAL  *struct {
		AppliedSeq, CheckpointSeq uint64
	}
	Counters struct {
		Reclusters, ReclusterErrors, Rotations, SheddedRequests int64
	}
}

func (c *conn) stats() (*statsDoc, error) {
	status, body, err := c.get("/stats")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /stats: status %d", status)
	}
	var doc statsDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	return &doc, nil
}

// service is one serve.Server behind a loopback httptest server.
type service struct {
	srv      *serve.Server
	hs       *httptest.Server
	stopLoop context.CancelFunc
}

func startService(cfg serve.Config) (*service, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	return &service{srv: srv, hs: httptest.NewServer(srv.Handler()), stopLoop: cancel}, nil
}

// stop closes the listener (waiting for requests in flight), stops the
// service's loops and closes its WAL. Like a crash, it saves nothing.
func (s *service) stop() error {
	s.hs.Close()
	s.stopLoop()
	s.srv.Wait()
	return s.srv.Close()
}

// bootTimed starts a service and returns it with the wall and CPU time
// from serve.New to the first 200 from GET /readyz. The readiness poll
// backs off from 1 ms to 16 ms, so polling a boot of seconds costs
// little of the CPU time measured.
func bootTimed(cfg serve.Config) (svc *service, wall, cpu float64, err error) {
	start, cpu0 := time.Now(), cpuSeconds()
	if svc, err = startService(cfg); err != nil {
		return nil, 0, 0, err
	}
	c := newConn(svc.hs.URL)
	for wait := time.Millisecond; ; wait = min(2*wait, 16*time.Millisecond) {
		status, _, err := c.get("/readyz")
		if err == nil && status == http.StatusOK {
			return svc, time.Since(start).Seconds(), cpuSeconds() - cpu0, nil
		}
		if time.Since(start) > time.Minute {
			svc.stop()
			return nil, 0, 0, fmt.Errorf("service not ready after a minute (status %d, %v)", status, err)
		}
		time.Sleep(wait)
	}
}

func (sp streamSpec) config(o options, dir string) serve.Config {
	return serve.Config{
		Dims: streamDims, WALDir: filepath.Join(dir, "wal"), WALSync: sp.walSync, Workers: 1,
		WindowPoints: o.scaled(sp.window, 100), ReclusterPoints: o.scaled(sp.reclusterPoints, 10),
	}
}

// runStream runs one stream workload end to end.
//
// The service and the load generator share this process. The service's
// re-cluster pass runs on one worker and the process gets one scheduler
// slot more than there are cores: with a slot per core, the pass and a
// GC worker can hold every slot, and requests then wait for Go's 10 ms
// preemption instead of the OS's time slice, which made ingest and
// query tails swing by up to half between runs.
func runStream(o options, sp streamSpec) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	out := &outcome{metrics: metrics{}, record: map[string]any{}}
	batch := o.scaled(sp.batchPoints, 10)
	nBatches := int(math.Ceil(o.seconds * sp.batchesPerSec))
	gen, err := newDriftStream(o.seed, nBatches*batch, batch, sp.drift)
	if err != nil {
		return nil, err
	}

	// Set-up, several times, from a collected heap so no collection of
	// the input generator's garbage runs beside it; the last boot serves
	// the measured part.
	runtime.GC()
	var setups, setupWall []float64
	var calib calibration
	var svc *service
	var cfg serve.Config
	for b := 0; b < sp.boots; b++ {
		calib.rounds(bootCalibRounds*(b+1)/sp.boots - bootCalibRounds*b/sp.boots)
		dir := o.sub(fmt.Sprintf("boot-%d", b))
		cfg = sp.config(o, dir)
		s, wall, cpu, err := bootTimed(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cpu)
		setupWall = append(setupWall, wall)
		if b == sp.boots-1 {
			svc = s
			break
		}
		if err := s.stop(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
	}
	stopped := false
	defer func() {
		if !stopped {
			svc.stop()
		}
	}()

	// Inputs of the measured part, encoded before it starts.
	batches := make([][][]float64, nBatches)
	bodies := make([][]byte, nBatches)
	for i := range batches {
		batches[i] = gen.take(batch)
		bodies[i] = encodeCSV(batches[i])
	}
	firstLive := (cfg.ReclusterPoints + batch - 1) / batch
	queries := encodeQueries(rand.New(rand.NewSource(o.seed+1)), batches,
		int(math.Ceil(o.seconds*sp.queriesPerSec)), sp.queriesPerSec, sp.batchesPerSec, firstLive)

	// Start the measured part, and later the answer check, from a
	// collected heap, so garbage left by the set-up does not decide when
	// the run's collections fall.
	runtime.GC()
	c := newConn(svc.hs.URL)
	doc0, err := c.stats()
	if err != nil {
		return nil, err
	}
	var baseSeq uint64
	if doc0.WAL != nil {
		baseSeq = doc0.WAL.AppliedSeq
	}
	ld := &loadRun{
		base: svc.hs.URL, baseSeq: baseSeq, batch: batch,
		bodies: bodies, queries: queries,
		ingestEvery: time.Duration(float64(time.Second) / sp.batchesPerSec),
		queryEvery:  time.Duration(float64(time.Second) / sp.queriesPerSec),
		seconds:     time.Duration(o.seconds * float64(time.Second)),
	}
	ld.run()
	out.attempted += ld.attempted
	out.failed += ld.failed
	for _, e := range ld.errs {
		out.fail("%s", e)
	}
	acked := len(ld.acks)

	// A clean stop: the load is over; force one final pass and wait for
	// a view covering the whole window before reading any counter.
	cut, err := c.stats()
	if err != nil {
		return nil, err
	}
	if status, _, err := c.do(http.MethodPost, "/recluster", "", nil); err != nil || status != http.StatusAccepted {
		return nil, fmt.Errorf("POST /recluster: status %d, %v", status, err)
	}
	doc, err := settle(c, cut.View)
	if err != nil {
		return nil, err
	}
	ld.stopPoller()
	counters := doc.Counters
	if counters.ReclusterErrors != 0 {
		out.fail("the service counted %d re-cluster errors", counters.ReclusterErrors)
	}
	if counters.SheddedRequests != 0 {
		out.fail("the service shed %d ingest requests", counters.SheddedRequests)
	}

	// Answer check: rebuild the acknowledged window and cluster it.
	end := acked * batch
	win := doc.Window.ActivePoints + doc.Window.AgingPoints
	if acked != nBatches {
		out.fail("%d of %d batches acknowledged", acked, nBatches)
	}
	if acked == 0 {
		return nil, fmt.Errorf("no ingest batch was acknowledged")
	}
	if win > end || doc.View.Points != win {
		return nil, fmt.Errorf("settled view holds %d points, window %d, acknowledged %d", doc.View.Points, win, end)
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
		out.tr = tr
	}
	runtime.GC()
	chk, err := checkWindow(tr, c, gen, end-win, end, doc)
	if err != nil {
		return nil, err
	}
	out.attempted += chk.attempted
	out.failed += chk.failed
	out.checks = append(out.checks, chk.checks...)

	// Clustering cost: passes of the settled window with no load. Then
	// let the pass in flight (if any) finish, and stop the service.
	seq, idle := doc.View.Seq, 2*publishGap(ld.views)
	var passCPU, passWall []float64
	if !o.trace {
		if passCPU, passWall, seq, err = timePasses(c, seq, sp.passes, idle, &calib); err != nil {
			return nil, err
		}
	}
	if _, err := waitPublish(c, seq, idle); err != nil {
		return nil, err
	}
	stopped = true
	if err := svc.stop(); err != nil {
		return nil, err
	}

	decideViews(ld.views, ld.wlog, 0)
	visible, fallbacks, unresolved := visibility(ld.acks, ld.views, ld.cutoff)
	m := out.metrics
	m.set("setup_s", calib.normalize(median(setups)), "s")
	m.set("pts_per_cpu_s", float64(win)/calib.normalize(median(passCPU)), "1/s")
	m.set("quality", chk.quality.Quality, "ratio")
	m.set("subspaces_quality", chk.quality.SubspacesQuality, "ratio")
	m.set("max_rss_mb", maxRSSMB(), "MB")
	// Ingest capacity: a batch's points over the median ingest service
	// time (send to ack). The open-loop ack rate would only repeat the
	// generator's offered rate while the service keeps up.
	serviceMs := make([]float64, acked)
	for i, a := range ld.acks {
		serviceMs[i] = ms(a.at.Sub(a.sent))
	}
	m.set("wall.pts_per_s", float64(batch)/(median(serviceMs)/1000), "1/s")
	m.setSample("wall.ingest_p50_ms", ld.ingestLat, 50, "ms")
	m.setSample("wall.query_p50_ms", ld.queryLat, 50, "ms")
	m.setSample("wall.query_p95_ms", ld.queryLat, 95, "ms")
	m.setSample("wall.visible_p50_ms", visible, 50, "ms")
	m.setSample("wall.visible_p90_ms", visible, 90, "ms")

	rec := out.record
	rec["calibrationCPUSeconds"] = calib
	rec["setupCPUSeconds"] = median(setups)
	rec["setupWallSeconds"] = median(setupWall)
	rec["passCPUSeconds"] = passCPU
	rec["passWallSeconds"] = passWall
	rec["referenceQuality"] = chk.reference.Quality
	rec["referenceSubspacesQuality"] = chk.reference.SubspacesQuality
	rec["points"] = end
	rec["dims"] = streamDims
	rec["h"] = core.DefaultH
	rec["fsync"] = sp.walSync
	rec["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rec["reclusterWorkers"] = cfg.Workers
	rec["windowPoints"] = cfg.WindowPoints
	rec["reclusterPoints"] = cfg.ReclusterPoints
	rec["batchPoints"] = batch
	rec["batchesPerSec"] = sp.batchesPerSec
	rec["queriesPerSec"] = sp.queriesPerSec
	rec["offeredPtsPerSec"] = float64(batch) * sp.batchesPerSec
	rec["viewsSeen"] = len(ld.views)
	rec["visibleFallbacks"] = fallbacks
	rec["visibleUnresolved"] = unresolved
	rec["generatorLateP99Ms"] = percentile(ld.late, 99)
	rec["ingestP95Ms"] = percentile(ld.ingestLat, 95)
	rec["counters"] = counters
	rec["windowCheck"] = map[string]int{"points": win, "betas": doc.View.Betas, "clusters": doc.View.Clusters}
	if !o.trace {
		return out, nil
	}

	// Per-layer: replay the acknowledged batches and the observed
	// passes through the layer calls.
	in := replayInput{
		dims: streamDims, walSync: sp.walSync,
		run:     core.Config{H: core.DefaultH, Alpha: cfg.Alpha, Workers: cfg.Workers, MaxBetaClusters: cfg.MaxBetaClusters},
		batches: batches[:acked], walDir: cfg.WALDir,
	}
	for _, t := range ld.wlog.rotationPoints() {
		in.rotateAfter = append(in.rotateAfter, t/batch)
	}
	for _, v := range ld.views {
		if v.end >= 0 && !v.published.After(ld.cutoff) {
			in.passes = append(in.passes, replayPass{after: v.end / batch, betas: v.betas, clusters: v.clusters})
		}
	}
	for _, b := range bodies[:acked] {
		var err error
		tr.do("dataset.parse", -1, func() { _, err = dataset.ReadCSV(bytes.NewReader(b), false) })
		if err != nil {
			return nil, err
		}
	}
	rr, err := replay(tr, in, o.workdir)
	if err != nil {
		return nil, err
	}
	for _, mm := range rr.mismatches {
		out.fail("%s", mm)
	}
	layerMetrics(m, tr)
	m.setSample("ctree.build_allocs", chk.allocs, 50, "count")
	treeShape(m, chk.tree)
	m.set("wal.bytes_per_point", float64(rr.walBytes)/float64(rr.walPoints), "B")
	m.set("serve.reclusters_per_s", float64(cut.Counters.Reclusters-doc0.Counters.Reclusters)/o.seconds, "1/s")
	m.set("serve.recluster_errors", float64(counters.ReclusterErrors), "count")
	m.set("serve.rotations", float64(counters.Rotations), "count")
	m.set("serve.shed", float64(counters.SheddedRequests), "count")
	m.setSample("serve.http_floor_ms", ld.floor, 50, "ms")
	m.setSample("load.late_p99_ms", ld.late, 99, "ms")
	m.set("trace.overhead_ms", rr.overheadMs, "ms")
	rec["tracingOverheadMsPerPass"] = rr.overheadMs
	rec["passesReplayed"] = min(len(in.passes), maxReplayPasses)
	return out, nil
}

// encodeQueries builds the query paths: query j asks for a point of a
// batch scheduled before it (at least the first minLive batches, which
// the first view already holds).
func encodeQueries(rng *rand.Rand, live [][][]float64, n int, qps, bps float64, minLive int) []string {
	out := make([]string, n)
	for j := range out {
		avail := min(max(minLive, int(float64(j)/qps*bps)), len(live))
		b := live[rng.Intn(avail)]
		out[j] = queryPath(b[rng.Intn(len(b))])
	}
	return out
}

// settle waits until the published view covers the whole window and is
// newer than last (the view current when the load stopped).
func settle(c *conn, last *viewDoc) (*statsDoc, error) {
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		doc, err := c.stats()
		if err != nil {
			return nil, err
		}
		v := doc.View
		if v != nil && (last == nil || v.Seq > last.Seq) && v.Points == doc.Window.ActivePoints+doc.Window.AgingPoints {
			return doc, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, fmt.Errorf("no view covering the whole window within a minute")
}

// timePasses has the service re-cluster its window passes times, each
// started by POST /recluster once the service is idle, with no other
// request running: the process's CPU time from the request to the
// publish is one pass (plus the /stats polls that watch for it). Before
// each pass it collects the heap, so whether one of the run's
// collections falls inside a pass does not swing its cost, and runs
// calibration rounds. idle is how long without a publish shows that no
// pass of the load is still running or queued. It returns the CPU and
// wall seconds of each pass and the last view's sequence.
func timePasses(c *conn, seq uint64, passes int, idle time.Duration, calib *calibration) (cpu, wall []float64, last uint64, err error) {
	for {
		next, err := waitPublish(c, seq, idle)
		if err != nil {
			return nil, nil, 0, err
		}
		if next == seq {
			break
		}
		seq = next
	}
	for len(cpu) < passes {
		runtime.GC()
		calib.rounds(passCalibRounds)
		cpu0, start := cpuSeconds(), time.Now()
		if status, _, err := c.do(http.MethodPost, "/recluster", "", nil); err != nil || status != http.StatusAccepted {
			return nil, nil, 0, fmt.Errorf("POST /recluster: status %d, %v", status, err)
		}
		next, err := waitPublish(c, seq, time.Minute)
		if err != nil {
			return nil, nil, 0, err
		}
		if next == seq {
			return nil, nil, 0, fmt.Errorf("no re-cluster pass published within a minute")
		}
		cpu = append(cpu, cpuSeconds()-cpu0)
		wall = append(wall, time.Since(start).Seconds())
		seq = next
	}
	return cpu, wall, seq, nil
}

// waitPublish polls /stats every quietPoll until a view newer than seq
// is published or wait has passed, and returns the view sequence it saw
// last.
func waitPublish(c *conn, seq uint64, wait time.Duration) (uint64, error) {
	deadline := time.Now().Add(wait)
	for time.Now().Before(deadline) {
		time.Sleep(quietPoll)
		doc, err := c.stats()
		if err != nil {
			return 0, err
		}
		if doc.View != nil && doc.View.Seq != seq {
			return doc.View.Seq, nil
		}
	}
	return seq, nil
}

// publishGap is the longest time between two publishes seen during the
// run, at least 100 ms: an upper bound on one pass plus its wait.
func publishGap(views []viewSeen) time.Duration {
	gap := 100 * time.Millisecond
	for i := 1; i < len(views); i++ {
		gap = max(gap, views[i].published.Sub(views[i-1].published))
	}
	return gap
}

// windowCheck is the final answer check's outcome.
type windowCheck struct {
	attempted, failed int
	checks            []string
	// quality scores the service's answers to the probe queries against
	// the ground truth; reference scores the rebuilt reference's labels
	// of the whole window.
	quality, reference eval.Report
	tree               *ctree.Tree
	allocs             []float64
}

// checkWindow rebuilds the tree of stream points [lo, hi) — the window
// the settled view covers — clusters it, and compares the result with
// the service's: β-cluster and cluster counts, and the answers to
// probeQueries queries on window points. The service's answers are then
// scored against the ground truth, and so are the reference's labels.
// With a tracer, the rebuild's layer calls are spans.
func checkWindow(tr *tracer, c *conn, gen *driftStream, lo, hi int, doc *statsDoc) (*windowCheck, error) {
	out := &windowCheck{}
	ds, err := dataset.FromRows(gen.pts[lo:hi])
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.do("dataset.normalize", -1, func() {
			cl := ds.Clone()
			_, _, err = cl.Normalize()
		})
		if err != nil {
			return nil, err
		}
	}
	var t *ctree.Tree
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr.do("ctree.build", -1, func() {
		t, err = ctree.BuildParallelOpts(ds, core.DefaultH, ctree.BuildOptions{Workers: runtime.GOMAXPROCS(0)})
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	out.allocs = []float64{float64(after.Mallocs - before.Mallocs)}
	var res *core.Result
	tr.do("core.run_on_tree", -1, func() { res, err = core.RunOnTree(t, ds, core.Config{}) })
	if err != nil {
		return nil, err
	}
	out.tree = t
	if len(res.Betas) != doc.View.Betas || len(res.Clusters) != doc.View.Clusters {
		out.checks = append(out.checks, fmt.Sprintf("window of %d points: reference found %d β-clusters / %d clusters, the service published %d / %d",
			hi-lo, len(res.Betas), len(res.Clusters), doc.View.Betas, doc.View.Clusters))
	}
	served := &eval.Clustering{Labels: make([]int, probeQueries), Relevant: make([][]bool, doc.View.Clusters)}
	truth := &eval.Clustering{Labels: make([]int, probeQueries), Relevant: gen.relevant}
	n := hi - lo
	for k := 0; k < probeQueries; k++ {
		i := k * n / probeQueries
		out.attempted++
		status, body, err := c.get(queryPath(gen.pts[lo+i]))
		var ans struct {
			Cluster      int
			RelevantAxes []int
		}
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &ans)
		}
		if err != nil || status != http.StatusOK || ans.Cluster != res.Labels[i] {
			out.failed++
			if len(out.checks) < 5 {
				out.checks = append(out.checks, fmt.Sprintf("probe %d: status %d, cluster %d, reference %d, %v", k, status, ans.Cluster, res.Labels[i], err))
			}
		}
		served.Labels[k] = eval.Noise
		if err == nil && status == http.StatusOK && ans.Cluster >= 0 && ans.Cluster < doc.View.Clusters {
			served.Labels[k] = ans.Cluster
			if served.Relevant[ans.Cluster] == nil {
				served.Relevant[ans.Cluster] = axisFlags(ans.RelevantAxes, streamDims)
			}
		}
		truth.Labels[k] = gen.labels[lo+i]
	}
	if out.quality, err = eval.Compare(served, truth); err != nil {
		return nil, err
	}
	out.reference, err = eval.Compare(
		&eval.Clustering{Labels: res.Labels, Relevant: relevance(res)},
		&eval.Clustering{Labels: gen.labels[lo:hi], Relevant: gen.relevant})
	return out, err
}

// axisFlags turns a list of axis numbers into per-axis flags.
func axisFlags(axes []int, dims int) []bool {
	f := make([]bool, dims)
	for _, j := range axes {
		if j >= 0 && j < dims {
			f[j] = true
		}
	}
	return f
}

// loadRun is the measured part of a stream workload: one open-loop
// ingest connection, one open-loop query connection, and a /stats
// poller that watches views being published.
type loadRun struct {
	base                    string
	baseSeq                 uint64
	batch                   int
	bodies                  [][]byte
	queries                 []string
	ingestEvery, queryEvery time.Duration
	seconds                 time.Duration

	sent      atomic.Int64 // cumulative points whose ingest has been sent
	firstView chan struct{}
	stopPoll  chan struct{}
	pollDone  sync.WaitGroup

	mu                  sync.Mutex
	attempted, failed   int
	errs                []string
	acks                []ackSeen
	ingestLat, queryLat []float64
	late                []float64
	views               []viewSeen
	wlog                *windowLog
	floor               []float64
	cutoff              time.Time
}

func (l *loadRun) count(err error, status, want int, what string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err == nil && status == want {
		return true
	}
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, fmt.Sprintf("%s: status %d, %v", what, status, err))
	}
	return false
}

// run drives the load for the configured time and returns once both
// senders finished; the poller keeps running until stopPoller.
func (l *loadRun) run() {
	l.firstView = make(chan struct{})
	l.stopPoll = make(chan struct{})
	l.wlog = newWindowLog()
	l.pollDone.Add(1)
	go l.poll()
	start := time.Now()
	end := start.Add(l.seconds)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		l.ingest(start)
	}()
	go func() {
		defer wg.Done()
		select {
		case <-l.firstView:
		case <-time.After(time.Until(end)):
			return
		}
		qs := start
		if now := time.Now(); now.After(start) {
			qs = now
		}
		l.query(qs, end)
	}()
	wg.Wait()
	l.cutoff = time.Now()
}

// schedule waits for the i-th send time and returns it together with
// the generator's own lag: how late the send was past the later of its
// due time and the previous request's completion.
func schedule(due, prevDone time.Time) time.Duration {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	ready := due
	if prevDone.After(ready) {
		ready = prevDone
	}
	return time.Since(ready)
}

func (l *loadRun) ingest(start time.Time) {
	c := newConn(l.base)
	var late []float64
	var prev time.Time
	for i, body := range l.bodies {
		due := start.Add(time.Duration(i) * l.ingestEvery)
		late = append(late, ms(schedule(due, prev)))
		total := (i + 1) * l.batch
		l.sent.Store(int64(total))
		sent := time.Now()
		status, _, err := c.do(http.MethodPost, "/ingest", "text/csv", body)
		prev = time.Now()
		if !l.count(err, status, http.StatusOK, "POST /ingest") {
			continue
		}
		l.mu.Lock()
		l.ingestLat = append(l.ingestLat, ms(prev.Sub(due)))
		l.acks = append(l.acks, ackSeen{sent: sent, at: prev, total: total})
		l.mu.Unlock()
	}
	l.mu.Lock()
	l.late = append(l.late, late...)
	l.mu.Unlock()
}

func (l *loadRun) query(start, end time.Time) {
	c := newConn(l.base)
	var lat, late []float64
	var prev time.Time
	for j, path := range l.queries {
		due := start.Add(time.Duration(j) * l.queryEvery)
		if !due.Before(end) {
			break
		}
		late = append(late, ms(schedule(due, prev)))
		status, _, err := c.get(path)
		prev = time.Now()
		if l.count(err, status, http.StatusOK, "GET /query") {
			lat = append(lat, ms(prev.Sub(due)))
		}
	}
	l.mu.Lock()
	l.queryLat = append(l.queryLat, lat...)
	l.late = append(l.late, late...)
	l.mu.Unlock()
}

// poll reads /stats every pollEvery until stopPoller: it records each
// new view with its publish time and the window's dropped total per
// rotation count, and times GET /healthz on every healthEvery-th poll.
func (l *loadRun) poll() {
	defer l.pollDone.Done()
	c := newConn(l.base)
	var lastSeq uint64
	var prevSend time.Time
	for n := 1; ; n++ {
		send := time.Now()
		doc, err := c.stats()
		recv := time.Now()
		if l.count(err, http.StatusOK, http.StatusOK, "GET /stats") {
			if v := doc.View; v != nil && v.Seq != lastSeq {
				pub := recv.Add(-time.Duration(v.AgeMs) * time.Millisecond)
				if pub.Before(prevSend) {
					pub = prevSend
				}
				if lastSeq == 0 {
					close(l.firstView)
				}
				lastSeq = v.Seq
				l.views = append(l.views, viewSeen{
					seq: v.Seq, published: pub, points: v.Points, betas: v.Betas, clusters: v.Clusters,
					sentBefore: int(l.sent.Load()),
				})
			}
			if doc.WAL != nil {
				applied := int(doc.WAL.AppliedSeq-l.baseSeq) * l.batch
				inWindow := doc.Window.ActivePoints + doc.Window.AgingPoints
				l.wlog.observe(int(doc.Counters.Rotations), applied-inWindow, doc.Window.AgingPoints)
			}
		}
		if n%healthEvery == 0 {
			start := time.Now()
			status, _, err := c.get("/healthz")
			if l.count(err, status, http.StatusOK, "GET /healthz") {
				l.floor = append(l.floor, ms(time.Since(start)))
			}
		}
		prevSend = send
		select {
		case <-l.stopPoll:
			return
		case <-time.After(time.Until(send.Add(pollEvery))):
		}
	}
}

func (l *loadRun) stopPoller() {
	close(l.stopPoll)
	l.pollDone.Wait()
}
