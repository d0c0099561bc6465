// Command mrcc-shard builds one Counting-tree from a large dataset by
// splitting the work across worker processes: the coordinator cuts the
// input into record-aligned shards, each worker builds its shard's
// tree with the usual radix/arena build and streams it back as a
// treeio snapshot, and a pairwise merge tournament reduces the W shard
// trees in ceil(log2 W) rounds. The merged tree is canonicalized, so
// it is cell-for-cell AND byte-for-byte identical to the tree a
// single-process build over the same rows would snapshot — sharding is
// a throughput lever, never a semantics change.
//
// Coordinator usage (pick ONE input style):
//
//	mrcc-shard -input data.csv [-header] -shards 4 [flags]
//	mrcc-shard -inputs a.csv,b.csv,c.csv [-header] [flags]
//	mrcc-shard -snapshots s0.snap,s1.snap [flags]
//
// With -worker-addrs host:port,... the jobs go to those (already
// running) workers round-robin; without it the coordinator spawns
// -local-workers worker processes of itself on loopback and tears
// them down afterwards. The merged tree can be snapshotted with -out
// (mrcc-serve warm-starts from it, see -snapshot/-trust-snapshot
// there), clustered in-process with -cluster, and byte-compared
// against a fresh single-process build with -check-serial.
//
// Worker usage:
//
//	mrcc-shard -worker [-listen 127.0.0.1:0]
//
// The worker prints "mrcc-shard worker listening on ADDR" on stdout
// (the coordinator and the smoke test parse that line), serves one job
// per connection, and exits on SIGINT/SIGTERM.
//
// Raw-domain inputs use -dims with -domain "min:max[,min:max...]"
// exactly like mrcc-serve; every worker embeds its shard with the same
// formula, so out-of-domain values fail the job instead of skewing the
// grid.
//
// Exit status is 0 on success, 1 on runtime errors (worker failures,
// unreadable input, a -check-serial mismatch) and 2 on invalid flags.
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/obs"
	"mrcc/internal/shard"
	"mrcc/internal/treeio"
)

// options holds the parsed, validated command line.
type options struct {
	worker bool
	listen string

	input        string
	inputs       string
	snapshots    string
	header       bool
	shards       int
	workerAddrs  string
	localWorkers int
	h            int
	dims         int
	domain       string
	buildWorkers int
	parallel     int
	out          string
	cluster      bool
	alpha        float64
	stats        bool
	checkSerial  bool
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(realMain(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with its dependencies injected so tests can drive
// the flag-parsing, validation and coordination paths and observe the
// exit code.
func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mrcc-shard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.BoolVar(&opt.worker, "worker", false, "run as a worker: serve shard-build jobs instead of coordinating")
	fs.StringVar(&opt.listen, "listen", "127.0.0.1:0", "worker listen address (worker mode only)")
	fs.StringVar(&opt.input, "input", "", "one CSV to partition into -shards byte ranges")
	fs.StringVar(&opt.inputs, "inputs", "", "comma-separated per-shard CSV files (alternative to -input)")
	fs.StringVar(&opt.snapshots, "snapshots", "", "comma-separated per-shard tree snapshots to merge (no building)")
	fs.BoolVar(&opt.header, "header", false, "input CSVs start with a header record")
	fs.IntVar(&opt.shards, "shards", 0, "shard count for -input (0 = worker count)")
	fs.StringVar(&opt.workerAddrs, "worker-addrs", "", "comma-separated addresses of running workers (empty = spawn local workers)")
	fs.IntVar(&opt.localWorkers, "local-workers", 0, "local worker processes to spawn when -worker-addrs is empty (0 = min(shards, CPUs))")
	fs.IntVar(&opt.h, "H", core.DefaultH, "number of Counting-tree resolutions (>= 3)")
	fs.IntVar(&opt.dims, "dims", 0, "point dimensionality (0 = take it from the data; required with -domain)")
	fs.StringVar(&opt.domain, "domain", "", `per-axis value bounds "min:max[,min:max...]"; one pair applies to all axes; empty = data already in [0,1)`)
	fs.IntVar(&opt.buildWorkers, "build-workers", 1, "build goroutines per worker process (0 = all CPUs)")
	fs.IntVar(&opt.parallel, "parallel", 0, "in-flight jobs and merge parallelism at the coordinator (0 = worker count)")
	fs.StringVar(&opt.out, "out", "", "write the merged Counting-tree snapshot to this file")
	fs.BoolVar(&opt.cluster, "cluster", false, "run the subspace clustering on the merged tree and report the clusters")
	fs.Float64Var(&opt.alpha, "alpha", core.DefaultAlpha, "significance level for -cluster, in (0, 1)")
	fs.BoolVar(&opt.stats, "stats", false, "with -cluster, print the per-phase clustering table and pipeline counters")
	fs.BoolVar(&opt.checkSerial, "check-serial", false, "also build the tree single-process and fail unless the snapshots are byte-identical")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := opt.validate(); err != nil {
		fmt.Fprintln(stderr, "mrcc-shard:", err)
		fs.Usage()
		return 2
	}
	if opt.worker {
		if err := runWorker(ctx, opt, stdout); err != nil {
			fmt.Fprintln(stderr, "mrcc-shard:", err)
			return 1
		}
		return 0
	}
	if err := runCoordinator(ctx, opt, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "mrcc-shard:", err)
		return 1
	}
	return 0
}

// validate rejects impossible configurations before any work happens.
func (o *options) validate() error {
	if o.worker {
		if o.listen == "" {
			return fmt.Errorf("-worker requires -listen")
		}
		return nil
	}
	sources := 0
	for _, s := range []string{o.input, o.inputs, o.snapshots} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("exactly one of -input, -inputs, -snapshots is required")
	}
	if o.input == "" && o.shards != 0 {
		return fmt.Errorf("-shards only applies to -input (byte-range partitioning)")
	}
	if o.shards < 0 {
		return fmt.Errorf("-shards must be >= 0, got %d", o.shards)
	}
	if o.h < 3 {
		return fmt.Errorf("-H must be at least 3, got %d", o.h)
	}
	if o.dims < 0 {
		return fmt.Errorf("-dims must be >= 0, got %d", o.dims)
	}
	if o.domain != "" && o.dims == 0 {
		return fmt.Errorf("-domain requires -dims")
	}
	if o.localWorkers < 0 || o.buildWorkers < 0 || o.parallel < 0 {
		return fmt.Errorf("-local-workers, -build-workers and -parallel must be >= 0")
	}
	if o.alpha <= 0 || o.alpha >= 1 {
		return fmt.Errorf("-alpha must be in (0, 1), got %g", o.alpha)
	}
	if o.snapshots != "" && (o.checkSerial || o.domain != "") {
		return fmt.Errorf("-snapshots merges prebuilt trees; -check-serial and -domain need the raw rows")
	}
	return nil
}

// runWorker is the -worker mode: serve jobs until the context ends.
func runWorker(ctx context.Context, opt options, stdout io.Writer) error {
	l, err := net.Listen("tcp", opt.listen)
	if err != nil {
		return err
	}
	// The coordinator (and the smoke test) parse this line for the
	// resolved port, so it goes to stdout unconditionally.
	fmt.Fprintf(stdout, "mrcc-shard worker listening on %s\n", l.Addr())
	if f, ok := stdout.(interface{ Sync() error }); ok {
		f.Sync()
	}
	return shard.Serve(ctx, l)
}

// runCoordinator partitions, dispatches, merges and post-processes.
func runCoordinator(ctx context.Context, opt options, stdout, stderr io.Writer) error {
	jobs, err := buildJobs(opt)
	if err != nil {
		return err
	}
	addrs, cleanup, err := workerFleet(ctx, opt, len(jobs), stderr)
	if err != nil {
		return err
	}
	defer cleanup()

	col := obs.New(nil)
	start := time.Now()
	merged, stats, err := shard.Run(ctx, shard.Options{
		Addrs:     addrs,
		Jobs:      jobs,
		Parallel:  opt.parallel,
		Collector: col,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stdout, "sharded build: %d points, %d cells across %d shards (%d KB streamed, %d merge rounds) in %v\n",
		merged.Eta, merged.CellCount(), stats.ShardsBuilt, stats.BytesStreamed/1024, stats.MergeRounds, elapsed.Round(time.Millisecond))

	if opt.checkSerial {
		if err := checkSerial(ctx, opt, merged, stdout); err != nil {
			return err
		}
	}
	if opt.out != "" {
		n, err := treeio.SaveFile(opt.out, merged)
		if err != nil {
			return fmt.Errorf("out: %w", err)
		}
		fmt.Fprintf(stdout, "saved %d-byte snapshot to %s\n", n, opt.out)
	}
	if opt.cluster {
		res, err := core.RunTreeContext(ctx, []*ctree.Tree{merged}, core.Config{
			Alpha: opt.alpha, H: opt.h, CollectStats: opt.stats,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "found %d correlation clusters (%d beta-clusters)\n", res.NumClusters(), len(res.Betas))
		for _, c := range res.Clusters {
			fmt.Fprintf(stdout, "  cluster %d: relevant axes %v\n", c.ID, c.RelevantAxes())
		}
		if opt.stats && res.Stats != nil {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, res.Stats.Format())
		}
	}
	return nil
}

// buildJobs turns the input flags into the shard job list.
func buildJobs(opt options) ([]shard.Job, error) {
	min, max, err := parseDomain(opt.domain, opt.dims)
	if err != nil {
		return nil, err
	}
	tpl := shard.Job{
		Dims: opt.dims, H: opt.h,
		Min: min, Max: max,
		Workers: opt.buildWorkers,
	}
	switch {
	case opt.input != "":
		shards := opt.shards
		if shards == 0 {
			if shards = opt.localWorkers; shards == 0 {
				shards = runtime.NumCPU()
			}
		}
		return shard.JobsForCSV(opt.input, opt.header, shards, tpl)
	case opt.inputs != "":
		return shard.JobsForPaths(splitList(opt.inputs), shard.KindCSV, opt.header, tpl)
	default:
		return shard.JobsForPaths(splitList(opt.snapshots), shard.KindSnapshot, false, tpl)
	}
}

// workerFleet resolves the worker addresses: the user's running
// workers, or local worker processes spawned (and later torn down) by
// the coordinator itself.
func workerFleet(ctx context.Context, opt options, jobCount int, stderr io.Writer) (addrs []string, cleanup func(), err error) {
	if opt.workerAddrs != "" {
		return splitList(opt.workerAddrs), func() {}, nil
	}
	n := opt.localWorkers
	if n == 0 {
		if n = runtime.NumCPU(); n > jobCount {
			n = jobCount
		}
	}
	if n < 1 {
		n = 1
	}
	return spawnWorkers(ctx, n, stderr)
}

// spawnWorkers launches n local worker processes of this binary on
// ephemeral loopback ports and parses each one's listen line. The
// cleanup terminates them with SIGTERM and reaps them.
func spawnWorkers(ctx context.Context, n int, stderr io.Writer) (addrs []string, cleanup func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("locating my own binary to spawn workers: %w", err)
	}
	var cmds []*exec.Cmd
	cleanup = func() {
		for _, cmd := range cmds {
			cmd.Process.Signal(syscall.SIGTERM)
		}
		for _, cmd := range cmds {
			cmd.Wait()
		}
	}
	defer func() {
		if err != nil {
			cleanup()
		}
	}()
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, exe, "-worker", "-listen", "127.0.0.1:0")
		cmd.Stderr = stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, cleanup, err
		}
		if err := cmd.Start(); err != nil {
			return nil, cleanup, fmt.Errorf("spawning worker %d: %w", i, err)
		}
		cmds = append(cmds, cmd)
		line, err := bufio.NewReader(out).ReadString('\n')
		if err != nil {
			return nil, cleanup, fmt.Errorf("worker %d never announced its address: %w", i, err)
		}
		addr := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "mrcc-shard worker listening on "))
		if addr == "" || addr == strings.TrimSpace(line) {
			return nil, cleanup, fmt.Errorf("worker %d announced %q, want a listen line", i, line)
		}
		addrs = append(addrs, addr)
	}
	return addrs, cleanup, nil
}

// checkSerial rebuilds the tree single-process over the same rows and
// demands the two snapshots be byte-identical — the sharded pipeline's
// ground-truth equivalence check.
func checkSerial(ctx context.Context, opt options, merged *ctree.Tree, stdout io.Writer) error {
	var ds *dataset.Dataset
	var err error
	if opt.input != "" {
		ds, err = dataset.LoadCSVFile(opt.input, opt.header)
	} else {
		ds, err = loadAll(splitList(opt.inputs), opt.header)
	}
	if err != nil {
		return fmt.Errorf("check-serial: %w", err)
	}
	min, max, err := parseDomain(opt.domain, opt.dims)
	if err != nil {
		return err
	}
	if err := shard.NormalizeDomain(ds, min, max); err != nil {
		return fmt.Errorf("check-serial: %w", err)
	}
	serial, err := ctree.Build(ds, opt.h, ctree.BuildOptions{Workers: 1, Ctx: ctx})
	if err != nil {
		return fmt.Errorf("check-serial: %w", err)
	}
	if !ctree.Equal(serial, merged) {
		return fmt.Errorf("check-serial: merged tree differs from the single-process build")
	}
	var want, got bytes.Buffer
	if _, err := treeio.Save(&want, serial); err != nil {
		return fmt.Errorf("check-serial: %w", err)
	}
	if _, err := treeio.Save(&got, merged); err != nil {
		return fmt.Errorf("check-serial: %w", err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		return fmt.Errorf("check-serial: snapshots differ (%d vs %d bytes)", want.Len(), got.Len())
	}
	fmt.Fprintf(stdout, "check-serial: ok — %d-byte snapshot identical to the single-process build\n", got.Len())
	return nil
}

// loadAll concatenates the per-shard CSVs in shard order, mirroring
// the row order the sharded build folds them in.
func loadAll(paths []string, header bool) (*dataset.Dataset, error) {
	var all *dataset.Dataset
	for _, p := range paths {
		ds, err := dataset.LoadCSVFile(p, header)
		if err != nil {
			return nil, err
		}
		if all == nil {
			all = ds
			continue
		}
		if ds.Dims != all.Dims {
			return nil, fmt.Errorf("%s holds %d-dimensional rows, earlier inputs hold %d", p, ds.Dims, all.Dims)
		}
		all.Points = append(all.Points, ds.Points...)
	}
	return all, nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseDomain turns "min:max[,min:max...]" into per-axis bounds; a
// single pair is broadcast to every axis. Same syntax as mrcc-serve.
func parseDomain(spec string, dims int) (min, max []float64, err error) {
	if spec == "" {
		return nil, nil, nil
	}
	pairs := strings.Split(spec, ",")
	if len(pairs) == 1 && dims > 1 {
		one := pairs[0]
		pairs = make([]string, dims)
		for j := range pairs {
			pairs[j] = one
		}
	}
	if len(pairs) != dims {
		return nil, nil, fmt.Errorf("-domain has %d axis bounds, want 1 or %d", len(pairs), dims)
	}
	min = make([]float64, dims)
	max = make([]float64, dims)
	for j, pair := range pairs {
		lo, hi, ok := strings.Cut(strings.TrimSpace(pair), ":")
		if !ok {
			return nil, nil, fmt.Errorf("-domain axis %d: %q is not min:max", j, pair)
		}
		if min[j], err = strconv.ParseFloat(lo, 64); err != nil {
			return nil, nil, fmt.Errorf("-domain axis %d min: %v", j, err)
		}
		if max[j], err = strconv.ParseFloat(hi, 64); err != nil {
			return nil, nil, fmt.Errorf("-domain axis %d max: %v", j, err)
		}
		if !(max[j] > min[j]) {
			return nil, nil, fmt.Errorf("-domain axis %d: max %g must exceed min %g", j, max[j], min[j])
		}
	}
	return min, max, nil
}
