package main

import (
	"hash/fnv"
	"math/rand"
	"runtime"
	"time"

	"mrcc"
	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/eval"
	"mrcc/internal/synthetic"
)

const (
	// coldRuns is how many fresh processes time the cold first
	// operation; set-up time is their median.
	coldRuns = 3
	// minBatchOps keeps a short run from reporting percentiles of one
	// or two operations.
	minBatchOps = 3
	// minBatchQuality is the floor under the paper-default run's
	// quality on the full-size 250k catalogue dataset (0.9795 at the
	// catalogue's own seed); a seed scoring below it means the answers
	// changed. Scaled-down smoke runs are too small to be held to it.
	minBatchQuality = 0.95
	// walkBatch is the batch size the layer probes split a dataset
	// into, the stream workload's ingest batch size.
	walkBatch = 1000
)

// batchSummary identifies one batch operation's answer: the
// β-cluster and cluster counts plus a hash of every label, and what
// the operation cost.
type batchSummary struct {
	Seconds     float64 `json:"seconds"`
	LoadSeconds float64 `json:"loadSeconds"`
	CPUSeconds  float64 `json:"cpuSeconds"`
	Betas       int     `json:"betas"`
	Clusters    int     `json:"clusters"`
	LabelHash   uint64  `json:"labelHash"`
}

func (s batchSummary) sameAnswer(o batchSummary) bool {
	return s.Betas == o.Betas && s.Clusters == o.Clusters && s.LabelHash == o.LabelHash
}

func labelHash(labels []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range labels {
		v := uint64(int64(l))
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func summarize(res *core.Result) batchSummary {
	return batchSummary{Betas: len(res.Betas), Clusters: len(res.Clusters), LabelHash: labelHash(res.Labels)}
}

// runBatchOp is one operation of batch-250k, exactly what the mrcc CLI
// does with a CSV file: load it and cluster it with the default Config.
func runBatchOp(path string) (batchSummary, *core.Result, error) {
	cpu := cpuSeconds()
	start := time.Now()
	ds, err := mrcc.LoadCSV(path, false)
	if err != nil {
		return batchSummary{}, nil, err
	}
	loaded := time.Since(start)
	res, err := mrcc.RunDataset(ds, mrcc.Config{})
	if err != nil {
		return batchSummary{}, nil, err
	}
	s := summarize(res)
	s.Seconds = time.Since(start).Seconds()
	s.CPUSeconds = cpuSeconds() - cpu
	s.LoadSeconds = loaded.Seconds()
	return s, res, nil
}

// batchOp is runBatchOp without the result, for the cold child process.
func batchOp(path string) (batchSummary, error) {
	s, _, err := runBatchOp(path)
	return s, err
}

// relevance lists each found cluster's relevant-axis flags for eval.
func relevance(res *core.Result) [][]bool {
	rel := make([][]bool, len(res.Clusters))
	for i, c := range res.Clusters {
		rel[i] = c.Relevant
	}
	return rel
}

// runBatch is the batch-250k workload: the paper's 250k-point, 14-d
// catalogue dataset, reordered by the seed and written once as CSV,
// then load + cluster operations closed-loop, one at a time.
func runBatch(o options) (*outcome, error) {
	out := &outcome{metrics: metrics{}, record: map[string]any{}}
	cfg, err := synthetic.CatalogueConfig("250k")
	if err != nil {
		return nil, err
	}
	cfg.Points = o.scaled(cfg.Points, 50*cfg.Clusters)
	gen, gt, err := synthetic.Generate(cfg)
	if err != nil {
		return nil, err
	}
	reorder(rand.New(rand.NewSource(o.seed)), gen.Points, gt, len(gen.Points))
	path := o.sub("batch.csv")
	if err := gen.SaveCSVFile(path); err != nil {
		return nil, err
	}
	n := gen.Len()
	out.record["points"] = n
	out.record["dims"] = gen.Dims
	out.record["h"] = core.DefaultH
	out.record["fsync"] = "none (no WAL on the batch path)"
	gen = nil

	// Set-up: the cold first operation, each in a fresh process.
	var setups, setupWall []float64
	var colds []batchSummary
	if !o.trace {
		for i := 0; i < coldRuns; i++ {
			s, err := o.coldOp(path)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s.CPUSeconds)
			setupWall = append(setupWall, s.Seconds)
			colds = append(colds, s)
		}
	}

	// The reference answer, fixed at set-up by this process's first
	// operation (left out of the throughput figures).
	ref, res, err := runBatchOp(path)
	if err != nil {
		return nil, err
	}
	rep, err := eval.Compare(
		&eval.Clustering{Labels: res.Labels, Relevant: relevance(res)},
		&eval.Clustering{Labels: gt.Labels, Relevant: gt.Relevant})
	if err != nil {
		return nil, err
	}
	if o.scale >= 1 && rep.Quality < minBatchQuality {
		out.fail("batch quality %.4f below the floor %.4f", rep.Quality, minBatchQuality)
	}
	for i, c := range colds {
		if !c.sameAnswer(ref) {
			out.fail("cold operation %d answered %+v, reference %+v", i, c, ref)
		}
	}
	res, gt = nil, nil
	out.record["reference"] = ref

	var ingest, visible, query, cpu, gaps, traced, untraced []float64
	var calib calibration
	var bt *batchTrace
	if o.trace {
		out.tr = newTracer()
		bt = &batchTrace{tr: out.tr, path: path}
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	last := time.Now()
	for i := 0; i < minBatchOps || time.Now().Before(deadline); i++ {
		// Each operation starts from a collected heap, as each run of
		// the CLI does; otherwise the previous operation's garbage
		// decides when this one's collections fall. The collection is
		// not part of the gap between operations.
		gcStart := time.Now()
		runtime.GC()
		calib.round()
		gaps = append(gaps, ms(time.Since(last)-time.Since(gcStart)))
		out.attempted++
		var s batchSummary
		if o.trace && i%2 == 1 {
			var opMs float64
			s, opMs, err = bt.op()
			traced = append(traced, opMs)
		} else {
			s, _, err = runBatchOp(path)
			untraced = append(untraced, s.Seconds*1000)
			cpu = append(cpu, s.CPUSeconds)
			ingest = append(ingest, s.LoadSeconds*1000)
			visible = append(visible, (s.Seconds-s.LoadSeconds)*1000)
			query = append(query, s.Seconds*1000)
		}
		last = time.Now()
		if err != nil {
			out.failed++
			out.fail("operation %d: %v", i, err)
			continue
		}
		if !s.sameAnswer(ref) {
			out.failed++
			out.fail("operation %d answered %+v, reference %+v", i, s, ref)
		}
	}

	m := out.metrics
	m.set("setup_s", calib.normalize(median(setups)), "s")
	m.set("pts_per_cpu_s", float64(n)/calib.normalize(median(cpu)), "1/s")
	m.set("quality", rep.Quality, "ratio")
	m.set("subspaces_quality", rep.SubspacesQuality, "ratio")
	m.set("max_rss_mb", maxRSSMB(), "MB")
	m.set("wall.pts_per_s", float64(n)/(median(query)/1000), "1/s")
	m.setSample("wall.ingest_p50_ms", ingest, 50, "ms")
	m.setSample("wall.query_p50_ms", query, 50, "ms")
	m.setSample("wall.query_p95_ms", query, 95, "ms")
	m.setSample("wall.visible_p50_ms", visible, 50, "ms")
	m.setSample("wall.visible_p90_ms", visible, 90, "ms")
	out.record["ingestP95Ms"] = percentile(ingest, 95)
	if !o.trace {
		out.record["setupCPUSeconds"] = median(setups)
		out.record["setupWallSeconds"] = median(setupWall)
	}
	out.record["opCPUSeconds"] = cpu
	out.record["calibrationCPUSeconds"] = calib
	if !o.trace {
		return out, nil
	}

	overhead := median(traced) - median(untraced)
	out.record["tracingOverheadMsPerOp"] = overhead
	m.set("trace.overhead_ms", overhead, "ms")
	m.setSample("load.late_p99_ms", gaps, 99, "ms")
	if err := batchLayerProbes(o, out, bt, ref); err != nil {
		return nil, err
	}
	return out, nil
}

// batchTrace replays batch operations layer by layer in a traced run
// and keeps what the layer probes need afterwards.
type batchTrace struct {
	tr     *tracer
	path   string
	allocs []float64
	tree   *ctree.Tree      // the last traced operation's tree
	work   *dataset.Dataset // and the dataset it was built from
}

// op replays one batch operation through the public calls the facade
// makes, with a span around each: parse, normalize, tree build, level
// index, then β-search + merge + labeling on the built tree. It returns
// the answer and the operation's wall time in ms.
func (b *batchTrace) op() (batchSummary, float64, error) {
	root := b.tr.begin("batch.op", -1)
	s, err := b.layers(root)
	return s, ms(b.tr.end(root)), err
}

func (b *batchTrace) layers(root int) (batchSummary, error) {
	tr := b.tr
	var ds *dataset.Dataset
	var err error
	tr.do("dataset.parse", root, func() { ds, err = dataset.LoadCSVFile(b.path, false) })
	if err != nil {
		return batchSummary{}, err
	}
	// The facade normalizes a clone only when the data leaves [0,1);
	// the span times that clone + normalize either way, and the run
	// goes on with what the facade would have used.
	work := ds
	normalized := ds.IsNormalized()
	tr.do("dataset.normalize", root, func() {
		c := ds.Clone()
		_, _, err = c.Normalize()
		if !normalized {
			work = c
		}
	})
	if err != nil {
		return batchSummary{}, err
	}
	var t *ctree.Tree
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr.do("ctree.build", root, func() {
		t, err = ctree.BuildParallelOpts(work, core.DefaultH, ctree.BuildOptions{Workers: runtime.GOMAXPROCS(0)})
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return batchSummary{}, err
	}
	b.allocs = append(b.allocs, float64(after.Mallocs-before.Mallocs))
	tr.do("ctree.index", root, func() { t.EnsureLevelIndexes() })
	var res *core.Result
	tr.do("core.run_on_tree", root, func() { res, err = core.RunOnTree(t, work, core.Config{}) })
	if err != nil {
		return batchSummary{}, err
	}
	b.tree, b.work = t, work
	return summarize(res), nil
}

// batchLayerProbes finishes a traced batch run: it replays the dataset
// as a stream of ingest-sized batches through the service's layer calls
// (one pass at the end, checked against the reference), times the HTTP
// floor of an idle service, and sets the per-layer metrics.
func batchLayerProbes(o options, out *outcome, bt *batchTrace, ref batchSummary) error {
	pts := bt.work.Points
	var batches [][][]float64
	for i := 0; i < len(pts); i += walkBatch {
		batches = append(batches, pts[i:min(i+walkBatch, len(pts))])
	}
	rr, err := replay(out.tr, replayInput{
		dims: bt.work.Dims, walSync: "interval", batches: batches,
		// A service with the default clustering settings.
		run:    core.Config{H: core.DefaultH},
		passes: []replayPass{{after: len(batches), betas: ref.Betas, clusters: ref.Clusters}},
	}, o.workdir)
	if err != nil {
		return err
	}
	for _, mm := range rr.mismatches {
		out.fail("%s", mm)
	}
	floor, err := idleServiceFloor(bt.work.Dims)
	if err != nil {
		return err
	}
	m := out.metrics
	layerMetrics(m, out.tr)
	m.setSample("ctree.build_allocs", bt.allocs, 50, "count")
	treeShape(m, bt.tree)
	m.set("wal.bytes_per_point", float64(rr.walBytes)/float64(rr.walPoints), "B")
	m.set("serve.reclusters_per_s", 0, "1/s")
	m.set("serve.recluster_errors", 0, "count")
	m.set("serve.rotations", 0, "count")
	m.set("serve.shed", 0, "count")
	m.setSample("serve.http_floor_ms", floor, 50, "ms")
	return nil
}
