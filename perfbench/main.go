// Command mrcc-bench is MrCC's end-to-end and per-layer benchmark. One
// invocation runs one workload — the batch pipeline (batch-250k) or the
// streaming service reached over loopback HTTP (stream-grow) — checks
// the answers, and prints every metric by name with its unit. The last
// line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also times each layer call and reports the per-layer metrics.
// README.md lists both sets and why each workload exists. Build and run
// it from the repository root with perfbench/run.sh.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// endToEnd and perLayer name the metrics a run reports with -trace 0
// and -trace 1; every workload reports all of them (BENCHMARK.json
// declares the same lists with their bounds). The end-to-end timings
// are CPU time; the wall-clock ones ("wall.*") are printed by every run
// and reported with the per-layer set, unbounded.
var (
	endToEnd = []string{
		"setup_s", "pts_per_cpu_s", "quality", "subspaces_quality", "max_rss_mb",
	}
	perLayer = []string{
		"dataset.parse_ms", "dataset.normalize_ms",
		"ctree.build_ms", "ctree.build_allocs", "ctree.index_ms",
		"core.run_on_tree_ms", "ctree.cells", "ctree.tree_mb",
		"ctree.insert_batch_ms", "wal.append_ms_p50", "wal.append_ms_p90", "wal.bytes_per_point",
		"ctree.clone_ms", "ctree.merge_ms", "core.run_tree_ms", "serve.pass_ms",
		"serve.reclusters_per_s", "serve.recluster_errors", "serve.rotations", "serve.shed",
		"serve.http_floor_ms", "treeio.load_ms", "wal.replay_ms", "treeio.save_ms",
		"load.late_p99_ms", "trace.overhead_ms",
		"wall.pts_per_s", "wall.ingest_p50_ms", "wall.query_p50_ms", "wall.query_p95_ms",
		"wall.visible_p50_ms", "wall.visible_p90_ms",
	}
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every point count of the workload. The command
	// always runs the documented sizes (1); only the smoke test shrinks
	// them.
	scale   float64
	workdir string
	commit  string // the source revision, for the run record
	// coldOp runs one batch operation on the CSV at path in a fresh
	// process and reports it; the batch workload's set-up time is the
	// median CPU time of several.
	coldOp func(path string) (batchSummary, error)
}

// outcome is what a workload run hands back for reporting.
type outcome struct {
	attempted, failed int
	// checks lists every answer check that failed; the run is correct
	// only when it is empty and no operation failed.
	checks  []string
	metrics metrics
	// record carries workload facts for the run record (points, dims,
	// fsync policy, sample counts, ...).
	record map[string]any
	tr     *tracer
}

func (o *outcome) fail(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) (*outcome, error){
	"batch-250k":  runBatch,
	"stream-grow": func(o options) (*outcome, error) { return runStream(o, growSpec) },
}

func main() {
	var o options
	var traceFlag int
	var coldOp string
	flag.StringVar(&o.workload, "workload", "", "batch-250k or stream-grow")
	flag.Int64Var(&o.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the measured part of the run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = time every layer and report the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory (emptied on exit)")
	flag.StringVar(&o.commit, "commit", "unknown", "source revision recorded with the run")
	flag.StringVar(&coldOp, "cold-op", "", "internal: run one batch operation on this CSV and print it")
	flag.Parse()

	if coldOp != "" {
		s, err := batchOp(coldOp)
		if err != nil {
			fatal(err)
		}
		json.NewEncoder(os.Stdout).Encode(s) //nolint:errcheck // a failed write fails the parent's decode
		return
	}
	o.trace = traceFlag == 1
	o.scale = 1
	o.coldOp = coldOpInChild
	run, ok := workloads[o.workload]
	if !ok {
		fatal(fmt.Errorf("unknown -workload %q", o.workload))
	}
	if o.seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(o.workdir, o.workload+"-*")
	if err != nil {
		fatal(err)
	}
	o.workdir = dir
	steal := startSteal()
	out, err := run(o)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	out.record["hostStealShare"] = steal.share()
	if err := report(os.Stdout, o, out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrcc-bench:", err)
	os.Exit(1)
}

// coldOpInChild re-executes this binary with -cold-op, so the operation
// runs in a process with a cold heap, cold caches and nothing loaded.
func coldOpInChild(path string) (batchSummary, error) {
	self, err := os.Executable()
	if err != nil {
		return batchSummary{}, err
	}
	cmd := exec.Command(self, "-cold-op", path)
	out, err := cmd.Output()
	if err != nil {
		return batchSummary{}, fmt.Errorf("cold operation: %w", err)
	}
	var s batchSummary
	if err := json.Unmarshal(out, &s); err != nil {
		return batchSummary{}, fmt.Errorf("cold operation output: %w", err)
	}
	// A cold start costs the whole process: runtime start-up and exit
	// included.
	s.CPUSeconds = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	return s, nil
}

// report prints the run record, one line per metric, the span table of
// a traced run, and finally the result line.
func report(w *os.File, o options, out *outcome) error {
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   len(out.checks) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	counts := map[string]int{}
	for _, name := range names {
		m, ok := out.metrics[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("workload %s produced no value for metric %s", o.workload, name)
		}
		res.Metrics[name] = m
		if m.N > 0 {
			counts[name] = m.N
		}
	}

	rec := runRecord(o, out)
	rec["sampleCounts"] = counts
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", line)
	for _, c := range out.checks {
		fmt.Fprintf(w, "check failed: %s\n", c)
	}
	// Every metric the run measured is printed; the result line holds
	// the run's set.
	var sorted []string
	for name := range out.metrics {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		m := out.metrics[name]
		if math.IsNaN(m.Value) {
			continue
		}
		n := ""
		if m.N > 0 {
			n = " (n=" + strconv.Itoa(m.N) + ")"
		}
		fmt.Fprintf(w, "%-24s %14.4f %s%s\n", name, m.Value, m.Unit, n)
	}
	if o.trace && out.tr != nil {
		out.tr.writeSummary(w)
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runRecord is the environment and workload facts printed with every
// run, so a figure can be traced back to the code and machine it came
// from.
func runRecord(o options, out *outcome) map[string]any {
	rec := map[string]any{
		"workload":   o.workload,
		"commit":     o.commit,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"scale":      o.scale,
		"traced":     o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"goVersion":  runtime.Version(),
		"attempted":  out.attempted,
		"failed":     out.failed,
		"errorRate":  errorRate(out.failed, out.attempted),
		"date":       time.Now().UTC().Format(time.RFC3339),
	}
	for k, v := range out.record {
		rec[k] = v
	}
	return rec
}

// scaled multiplies a point count by the run's scale, keeping it at
// least min.
func (o options) scaled(n, min int) int {
	v := int(math.Round(float64(n) * o.scale))
	if v < min {
		return min
	}
	return v
}

// sub returns a path under the run's scratch directory.
func (o options) sub(name string) string { return filepath.Join(o.workdir, name) }
