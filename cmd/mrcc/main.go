// Command mrcc runs the MrCC correlation clustering method over a CSV
// dataset and reports the clusters, their relevant axes and the
// per-point labels.
//
// Usage:
//
//	mrcc -in data.csv [-header] [-alpha 1e-10] [-H 4] [-workers 0]
//	     [-timeout 0] [-memlimit 0] [-degrade]
//	     [-save-tree tree.snap] [-load-tree tree.snap] [-external spilldir]
//	     [-out labels.csv] [-json] [-stats]
//	     [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -stats prints the per-phase wall/memory table and the pipeline
// counters, including the β-search scan-cache line (level builds,
// cached values, eligibility skips, scan depth — see DESIGN.md §7);
// -json emits the same record machine-readably.
//
// -save-tree snapshots the run's Counting-tree to a versioned binary
// file after clustering. The run writes nothing into the tree, so the
// file's usedCell column (format v1 stores one) is clear, as in a tree
// saved before any run. -load-tree skips phase one entirely by
// restoring such a snapshot (the dataset must be the one the tree was
// built from — geometry is checked). -external builds the tree
// out-of-core: quantized points are sorted in bounded-memory chunks
// (capped by -memlimit) and spilled as sorted runs under the given
// directory, then k-way merged — the clustering output is identical to
// the in-memory build's. -external cannot be combined with -degrade or
// -load-tree.
//
// SIGINT/SIGTERM cancel the run cooperatively: the pipeline stops
// within one chunk of work, the command reports the phase it reached
// (with the partial -stats table, when enabled) and exits non-zero. A
// second signal kills the process via Go's default handling.
// -timeout bounds the run's wall time the same way; -memlimit caps the
// Counting-tree footprint (with -degrade retrying at smaller H).
//
// Exit status is 0 on success, 1 on runtime errors (unreadable input,
// clustering failure, interruption, write errors) and 2 on invalid
// flags.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"mrcc"
	"mrcc/internal/dataset"
)

// options holds the parsed, validated command line.
type options struct {
	in         string
	header     bool
	alpha      float64
	h          int
	workers    int
	timeout    time.Duration
	memLimit   uint64
	degrade    bool
	saveTree   string
	loadTree   string
	external   string
	out        string
	asJSON     bool
	stats      bool
	cpuProfile string
	memProfile string
}

func main() {
	// SIGINT/SIGTERM cancel the pipeline cooperatively; signal.NotifyContext
	// restores the default handler after the first signal, so a second
	// one force-kills a run stuck outside the pipeline (e.g. in I/O).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(realMainCtx(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is realMainCtx without cancellation, kept for tests that
// drive the flag-parsing and validation path.
func realMain(args []string, stdout, stderr io.Writer) int {
	return realMainCtx(context.Background(), args, stdout, stderr)
}

// realMainCtx is main with its dependencies injected so tests can
// drive the full flag-parsing, validation and cancellation paths and
// observe the exit code.
func realMainCtx(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mrcc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.in, "in", "", "input CSV file (required)")
	fs.BoolVar(&opt.header, "header", false, "treat the first CSV record as axis names")
	fs.Float64Var(&opt.alpha, "alpha", mrcc.DefaultAlpha, "statistical significance level α, in (0, 1)")
	fs.IntVar(&opt.h, "H", mrcc.DefaultH, "number of Counting-tree resolutions (>= 3)")
	fs.IntVar(&opt.workers, "workers", 0, "parallel workers for the pipeline (0 = all CPUs, 1 = serial)")
	fs.DurationVar(&opt.timeout, "timeout", 0, "abort the run after this long (0 = no limit)")
	fs.Uint64Var(&opt.memLimit, "memlimit", 0, "Counting-tree memory budget in bytes (0 = no limit)")
	fs.BoolVar(&opt.degrade, "degrade", false, "with -memlimit, retry at smaller H instead of failing")
	fs.StringVar(&opt.saveTree, "save-tree", "", "write the run's Counting-tree snapshot to this file")
	fs.StringVar(&opt.loadTree, "load-tree", "", "skip the tree build: restore the Counting-tree from this snapshot")
	fs.StringVar(&opt.external, "external", "", "build the Counting-tree out-of-core, spilling sorted runs under this directory")
	fs.StringVar(&opt.out, "out", "", "write per-point labels to this CSV file")
	fs.BoolVar(&opt.asJSON, "json", false, "print the result summary as JSON")
	fs.BoolVar(&opt.stats, "stats", false, "collect and print per-phase timings, counters and memory deltas")
	fs.StringVar(&opt.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&opt.memProfile, "memprofile", "", "write a heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return 2 // flag package already printed the error + usage
	}
	if err := opt.validate(); err != nil {
		fmt.Fprintln(stderr, "mrcc:", err)
		fs.Usage()
		return 2
	}
	if err := run(ctx, opt, stdout); err != nil {
		var pe *mrcc.PipelineError
		if errors.As(err, &pe) {
			reportAbort(stderr, pe)
		} else {
			fmt.Fprintln(stderr, "mrcc:", err)
		}
		return 1
	}
	return 0
}

// reportAbort explains an interrupted run: the cause, the phase the
// pipeline reached, and (when -stats collected them) the partial
// per-phase table, so an operator sees where the time went before the
// abort.
func reportAbort(stderr io.Writer, pe *mrcc.PipelineError) {
	switch {
	case errors.Is(pe, context.Canceled):
		fmt.Fprintf(stderr, "mrcc: interrupted during the %s phase\n", pe.Phase)
	case errors.Is(pe, context.DeadlineExceeded):
		fmt.Fprintf(stderr, "mrcc: timeout during the %s phase\n", pe.Phase)
	default:
		fmt.Fprintln(stderr, "mrcc:", pe)
	}
	if pe.Stats != nil {
		fmt.Fprint(stderr, pe.Stats.Format())
	}
}

// validate rejects impossible configurations before any work happens,
// so flag mistakes exit with status 2 and the usage text instead of a
// mid-run failure.
func (o *options) validate() error {
	if o.in == "" {
		return fmt.Errorf("-in is required")
	}
	if o.alpha <= 0 || o.alpha >= 1 {
		return fmt.Errorf("-alpha must be in (0, 1), got %g", o.alpha)
	}
	if o.h < 3 {
		return fmt.Errorf("-H must be at least 3, got %d", o.h)
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", o.workers)
	}
	if o.timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0, got %v", o.timeout)
	}
	if o.degrade && o.memLimit == 0 {
		return fmt.Errorf("-degrade requires -memlimit")
	}
	if o.external != "" && o.degrade {
		return fmt.Errorf("-external cannot be combined with -degrade: the external build bounds the sort buffer, not the tree")
	}
	if o.loadTree != "" && o.external != "" {
		return fmt.Errorf("-load-tree skips the tree build; it cannot be combined with -external")
	}
	if o.loadTree != "" && o.degrade {
		return fmt.Errorf("-load-tree skips the tree build; it cannot be combined with -degrade")
	}
	if o.loadTree != "" && o.memLimit != 0 {
		return fmt.Errorf("-load-tree skips the tree build; -memlimit would be silently ignored")
	}
	return nil
}

func run(ctx context.Context, opt options, stdout io.Writer) error {
	if opt.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.timeout)
		defer cancel()
	}
	ds, err := dataset.LoadCSVFile(opt.in, opt.header)
	if err != nil {
		return err
	}
	if opt.cpuProfile != "" {
		f, err := os.Create(opt.cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	cfg := mrcc.Config{
		Alpha: opt.alpha, H: opt.h, Workers: opt.workers,
		CollectStats:         opt.stats,
		MemoryLimitBytes:     opt.memLimit,
		DegradeOnMemoryLimit: opt.degrade,
		ExternalSpillDir:     opt.external,
		KeepTree:             opt.saveTree != "",
	}
	start := time.Now()
	in := mrcc.Input{Dataset: ds}
	var snapshotLoaded int64
	if opt.loadTree != "" {
		if in.Tree, snapshotLoaded, err = loadTree(opt.loadTree); err != nil {
			return fmt.Errorf("load-tree: %w", err)
		}
	}
	res, err := mrcc.Run(ctx, in, cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	var snapshotSaved int64
	if opt.saveTree != "" {
		if snapshotSaved, err = mrcc.SaveTree(opt.saveTree, res.Tree); err != nil {
			return fmt.Errorf("save-tree: %w", err)
		}
	}
	if res.Stats != nil {
		res.Stats.Counters.SnapshotSaveBytes = snapshotSaved
		res.Stats.Counters.SnapshotLoadBytes = snapshotLoaded
	}
	if opt.memProfile != "" {
		f, err := os.Create(opt.memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC()
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			f.Close()
			return fmt.Errorf("memprofile: %w", werr)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}

	if opt.asJSON {
		return printJSON(stdout, ds, res, elapsed)
	}
	printText(stdout, ds, res, elapsed)
	if opt.out != "" {
		return writeLabels(opt.out, res.Labels)
	}
	return nil
}

// loadTree is the -load-tree path's restore: the Counting-tree from its
// snapshot, which Run then reclusters (normalizing the dataset the way
// the build did), and the snapshot's on-disk size for the -stats IO
// line.
func loadTree(path string) (*mrcc.Tree, int64, error) {
	t, err := mrcc.LoadTree(path)
	if err != nil {
		return nil, 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	return t, fi.Size(), nil
}

type jsonCluster struct {
	ID           int   `json:"id"`
	Size         int   `json:"size"`
	RelevantAxes []int `json:"relevantAxes"`
	BetaClusters int   `json:"betaClusters"`
}

type jsonOutput struct {
	Points    int           `json:"points"`
	Dims      int           `json:"dims"`
	Clusters  []jsonCluster `json:"clusters"`
	Noise     int           `json:"noisePoints"`
	ElapsedMS float64       `json:"elapsedMs"`
	MemoryKB  uint64        `json:"treeMemoryKB"`
	Stats     *mrcc.Stats   `json:"stats,omitempty"`
	Labels    []int         `json:"labels"`
}

func printJSON(w io.Writer, ds *mrcc.Dataset, res *mrcc.Result, elapsed time.Duration) error {
	outp := jsonOutput{
		Points:    ds.Len(),
		Dims:      ds.Dims,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		MemoryKB:  res.TreeMemoryBytes / 1024,
		Stats:     res.Stats,
		Labels:    res.Labels,
	}
	for _, l := range res.Labels {
		if l == mrcc.Noise {
			outp.Noise++
		}
	}
	for _, c := range res.Clusters {
		outp.Clusters = append(outp.Clusters, jsonCluster{
			ID: c.ID, Size: c.Size, RelevantAxes: c.RelevantAxes(), BetaClusters: len(c.Betas),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(outp)
}

func printText(w io.Writer, ds *mrcc.Dataset, res *mrcc.Result, elapsed time.Duration) {
	noise := 0
	for _, l := range res.Labels {
		if l == mrcc.Noise {
			noise++
		}
	}
	fmt.Fprintf(w, "dataset: %d points x %d axes\n", ds.Len(), ds.Dims)
	fmt.Fprintf(w, "found %d correlation clusters (%d beta-clusters) in %v, tree %d KB\n",
		res.NumClusters(), len(res.Betas), elapsed.Round(time.Millisecond), res.TreeMemoryBytes/1024)
	for _, c := range res.Clusters {
		fmt.Fprintf(w, "  cluster %d: %d points, relevant axes %v\n", c.ID, c.Size, c.RelevantAxes())
	}
	fmt.Fprintf(w, "  noise: %d points (%.1f%%)\n", noise, 100*float64(noise)/float64(ds.Len()))
	if res.Stats != nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, res.Stats.Format())
	}
}

func writeLabels(path string, labels []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, l := range labels {
		if _, err := f.WriteString(strconv.Itoa(l) + "\n"); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
