// Command experiments regenerates the tables and figures of the paper's
// evaluation section. Every figure of Section IV has a runner; -list
// shows the mapping.
//
// Usage:
//
//	experiments -list
//	experiments -fig fig5-first [-scale 0.1] [-methods MrCC,LAC] [-sweep] [-workers 0]
//	experiments -fig all -scale 0.05
//	experiments -benchstats results/bench_stats.json [-scale 0.05] [-workers 4]
//	experiments -benchscan results/bench_scan.json [-scale 0.05] [-workers 1,2,8] [-minscanpps 50000]
//	experiments -benchbuild results/bench_build.json [-scale 0.05] [-workers 1,2,8] [-minbuildpps 200000]
//	experiments -benchsnapshot results/bench_snapshot.json [-scale 0.05]
//	experiments -benchwal results/bench_wal.json [-scale 0.05] [-minwalpps 100000]
//	experiments -benchshard results/bench_shard.json [-scale 0.05] [-shards 2,4] [-minshardspeedup 1.5]
//
// -workers accepts either one count (0 = all CPUs) or a comma list;
// the bench runners sweep every listed count, so CI can probe serial
// and parallel rows in one invocation. -minbuildpps / -minscanpps turn
// the bench smokes into regression gates: the run exits 1 when the
// best row's points/s lands below the floor.
//
// -benchstats runs the parallel-pipeline benchmark dataset once per
// worker count with the observability layer on and writes the records
// (wall times, throughput, per-phase stats) as JSON to the given path
// ("-" for stdout). CI runs it at a small scale as a smoke test.
//
// -benchscan isolates phase two (the β-cluster search) over one shared
// Counting-tree: the pre-PR naive re-convolving scan at Workers=1,
// then the default one-shot convolution cache at 1, 4 and 8 workers,
// writing per-row phase-two wall times and speedups as JSON. CI runs
// it at a small scale; EXPERIMENTS.md records the full-scale series.
//
// -benchbuild isolates phase one (the Counting-tree build): ctree.Build
// at each -workers count (default 1, 4 and 8), writing wall times,
// throughput, heap-allocation counts and the arena/batch counters as
// JSON. CI runs it at a small scale; EXPERIMENTS.md records the
// full-scale series next to the pre-arena baseline.
//
// -benchsnapshot measures the persistence layer: snapshot save/load
// throughput over the bench tree, and the disk-backed external build
// at a sort budget of one tenth of the record stream, verified
// cell-for-cell against the in-memory build. CI runs it at a small
// scale; EXPERIMENTS.md records the full-scale figures.
//
// -benchwal measures the durability layer: write-ahead-log append
// throughput under each fsync policy (always, interval, none) over
// service-sized batch payloads, plus a cold open-and-replay of each
// log — the read side of crash recovery. CI runs it at a small scale;
// EXPERIMENTS.md records the full-scale figures.
//
// -benchshard measures the sharded build pipeline: the single-process
// end-to-end baseline (CSV parse + serial build) against the
// coordinated build over W loopback workers at each swept shard
// count, with every merged tree verified against the serial one. The
// records carry a cores field — speedups are capped by the machine's
// CPU count, so -minshardspeedup floors belong on multi-core runners.
// CI runs it at a small scale; EXPERIMENTS.md records the full-scale
// figures.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"mrcc/internal/experiments"
)

func main() {
	var (
		fig     = flag.String("fig", "", "figure ID to regenerate, or \"all\"")
		list    = flag.Bool("list", false, "list figure IDs and exit")
		scale   = flag.Float64("scale", 1.0, "scale dataset sizes (1.0 = the paper's full sizes)")
		methods = flag.String("methods", "", "comma-separated method filter (e.g. MrCC,LAC,EPCH)")
		sweep   = flag.Bool("sweep", false, "run the full per-method parameter sweeps of Section IV-E")
		harpCap = flag.Int("harpcap", 1000, "subsample cap for HARP (0 = uncapped; quadratic!)")
		workers = flag.String("workers", "0", "MrCC pipeline parallelism: one count (0 = all CPUs, 1 = serial) or a comma list (e.g. 1,2,8) swept by the bench runners")
		csvOut  = flag.String("csv", "", "also export the measurements to this CSV file")
		bench   = flag.String("benchstats", "", "write pipeline bench stats (JSON) to this path (\"-\" = stdout) and exit")
		scan    = flag.String("benchscan", "", "write β-search scan bench records (JSON) to this path (\"-\" = stdout) and exit")
		build   = flag.String("benchbuild", "", "write tree-build bench records (JSON) to this path (\"-\" = stdout) and exit")
		snap    = flag.String("benchsnapshot", "", "write snapshot/external-build bench record (JSON) to this path (\"-\" = stdout) and exit")
		walOut  = flag.String("benchwal", "", "write write-ahead-log bench records (JSON) to this path (\"-\" = stdout) and exit")
		shardO  = flag.String("benchshard", "", "write sharded-build bench records (JSON) to this path (\"-\" = stdout) and exit")
		shards  = flag.String("shards", "", "with -benchshard: comma list of worker counts to sweep (default 2,4,8; a shards=1 baseline row always runs)")

		minBuildPPS     = flag.Float64("minbuildpps", 0, "with -benchbuild: fail (exit 1) unless the best row reaches this many points/s — the CI regression floor")
		minScanPPS      = flag.Float64("minscanpps", 0, "with -benchscan: fail (exit 1) unless the best cached row's β-search reaches this many points/s — the CI regression floor")
		minWALPPS       = flag.Float64("minwalpps", 0, "with -benchwal: fail (exit 1) unless the best row's append throughput reaches this many points/s — the CI regression floor")
		minShardSpeedup = flag.Float64("minshardspeedup", 0, "with -benchshard: fail (exit 1) unless the best sharded row reaches this speedup over the single-process baseline — the CI regression floor (only meaningful on multi-core runners)")
	)
	flag.Parse()
	workerList, err := parseWorkers(*workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if *list {
		for _, f := range experiments.FigureIDs() {
			fmt.Printf("%-14s %s\n", f.ID, f.Description)
		}
		return
	}
	opt := experiments.Options{Scale: *scale, HarpCap: *harpCap, Sweep: *sweep, Workers: workerList[0]}
	if *methods != "" {
		opt.Methods = strings.Split(*methods, ",")
	}
	if *bench != "" {
		if err := runBenchStats(*bench, opt); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	if *scan != "" {
		if err := runBenchScan(*scan, opt, workerList, *minScanPPS); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	if *build != "" {
		if err := runBenchBuild(*build, opt, workerList, *minBuildPPS); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	if *snap != "" {
		if err := runBenchSnapshot(*snap, opt); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	if *walOut != "" {
		if err := runBenchWAL(*walOut, opt, *minWALPPS); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	if *shardO != "" {
		var shardList []int
		if *shards != "" {
			if shardList, err = parseWorkers(*shards); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(2)
			}
		}
		if err := runBenchShard(*shardO, opt, shardList, *minShardSpeedup); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	if *fig == "" {
		fmt.Fprintln(os.Stderr, "experiments: -fig is required (or -list, -benchstats, -benchscan, -benchbuild, -benchsnapshot, -benchwal, -benchshard)")
		flag.Usage()
		os.Exit(2)
	}
	ids := []string{*fig}
	if *fig == "all" {
		ids = nil
		for _, f := range experiments.FigureIDs() {
			ids = append(ids, f.ID)
		}
	}
	var capture bytes.Buffer
	for _, id := range ids {
		fmt.Printf("== %s ==\n", id)
		var w io.Writer = os.Stdout
		if *csvOut != "" {
			w = io.MultiWriter(os.Stdout, &capture)
		}
		start := time.Now()
		if err := experiments.RunFigure(id, w, opt); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *csvOut != "" {
		rows := experiments.ParseTable(capture.String())
		f, err := os.Create(*csvOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if err := experiments.WriteCSV(f, rows); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d measurement rows to %s\n", len(rows), *csvOut)
	}
}

// parseWorkers parses the -workers flag: a single count or a comma
// list. An empty flag (or "0") yields [0] — the all-CPUs default.
func parseWorkers(s string) ([]int, error) {
	if s == "" {
		return []int{0}, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		w, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || w < 0 {
			return nil, fmt.Errorf("-workers: %q is not a non-negative integer count", p)
		}
		out = append(out, w)
	}
	return out, nil
}

// benchSweep turns the parsed -workers list into the sweep a bench
// runner receives: an explicit multi-entry list is used verbatim, a
// single count >1 keeps the legacy serial-vs-that-count pairing, and
// 0/1 selects the runner's default sweep (nil).
func benchSweep(workerList []int) []int {
	if len(workerList) > 1 {
		return workerList
	}
	if workerList[0] > 1 {
		return []int{1, workerList[0]}
	}
	return nil
}

// runBenchStats runs the pipeline bench (serial plus the configured
// worker count) and writes the JSON records to path or stdout.
func runBenchStats(path string, opt experiments.Options) error {
	counts := []int{1, 0}
	if opt.Workers > 1 {
		counts = []int{1, opt.Workers}
	}
	records, err := experiments.BenchStats(opt, counts)
	if err != nil {
		return err
	}
	if path == "-" {
		return experiments.WriteBenchStats(os.Stdout, records)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.WriteBenchStats(f, records); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for _, r := range records {
		fmt.Printf("benchstats: workers=%d points=%d %.3fs (%.0f points/s) clusters=%d\n",
			r.Workers, r.Points, r.Seconds, r.PointsPerSec, r.Clusters)
	}
	fmt.Printf("wrote %d bench-stats records to %s\n", len(records), path)
	return nil
}

// runBenchScan runs the β-search scan bench (naive baseline plus the
// cached scan at the swept worker counts, 1/4/8 by default), writes
// the JSON records to path or stdout, and enforces the optional
// points/s regression floor on the best cached row.
func runBenchScan(path string, opt experiments.Options, workerList []int, minPPS float64) error {
	records, err := experiments.BenchScan(opt, benchSweep(workerList))
	if err != nil {
		return err
	}
	checkFloor := func() error {
		if minPPS <= 0 {
			return nil
		}
		var best float64
		for _, r := range records {
			if r.Mode != "cached" || r.BetaSearchSeconds <= 0 {
				continue
			}
			if pps := float64(r.Points) / r.BetaSearchSeconds; pps > best {
				best = pps
			}
		}
		if best < minPPS {
			return fmt.Errorf("benchscan: best cached β-search throughput %.0f points/s is below the regression floor %.0f", best, minPPS)
		}
		fmt.Fprintf(os.Stderr, "benchscan: floor ok (%.0f >= %.0f points/s)\n", best, minPPS)
		return nil
	}
	if path == "-" {
		if err := experiments.WriteBenchScan(os.Stdout, records); err != nil {
			return err
		}
		return checkFloor()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.WriteBenchScan(f, records); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for _, r := range records {
		if r.BetaSearchSpeedup > 0 {
			fmt.Printf("benchscan: %s workers=%d betaSearch=%.3fs (%.2fx vs naive) betas=%d\n",
				r.Mode, r.Workers, r.BetaSearchSeconds, r.BetaSearchSpeedup, r.BetaClusters)
		} else {
			fmt.Printf("benchscan: %s workers=%d betaSearch=%.3fs betas=%d\n",
				r.Mode, r.Workers, r.BetaSearchSeconds, r.BetaClusters)
		}
	}
	fmt.Printf("wrote %d bench-scan records to %s\n", len(records), path)
	return checkFloor()
}

// runBenchBuild runs the tree-build bench (serial sorted-batch build
// plus the parallel sort-and-merge build at the swept worker counts),
// writes the JSON records to path or stdout, and enforces the optional
// points/s regression floor on the best row.
func runBenchBuild(path string, opt experiments.Options, workerList []int, minPPS float64) error {
	records, err := experiments.BenchBuild(opt, benchSweep(workerList))
	if err != nil {
		return err
	}
	checkFloor := func() error {
		if minPPS <= 0 {
			return nil
		}
		var best float64
		for _, r := range records {
			if r.PointsPerSec > best {
				best = r.PointsPerSec
			}
		}
		if best < minPPS {
			return fmt.Errorf("benchbuild: best build throughput %.0f points/s is below the regression floor %.0f", best, minPPS)
		}
		fmt.Fprintf(os.Stderr, "benchbuild: floor ok (%.0f >= %.0f points/s)\n", best, minPPS)
		return nil
	}
	if path == "-" {
		if err := experiments.WriteBenchBuild(os.Stdout, records); err != nil {
			return err
		}
		return checkFloor()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.WriteBenchBuild(f, records); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for _, r := range records {
		if r.Speedup > 0 {
			fmt.Printf("benchbuild: workers=%d build=%.3fs (%.0f points/s, %.2fx vs serial) allocs=%d cells=%d\n",
				r.Workers, r.BuildSeconds, r.PointsPerSec, r.Speedup, r.Allocs, r.CellCount)
		} else {
			fmt.Printf("benchbuild: workers=%d build=%.3fs (%.0f points/s) allocs=%d cells=%d\n",
				r.Workers, r.BuildSeconds, r.PointsPerSec, r.Allocs, r.CellCount)
		}
	}
	fmt.Printf("wrote %d bench-build records to %s\n", len(records), path)
	return checkFloor()
}

// runBenchSnapshot runs the persistence bench (snapshot save/load
// throughput plus the disk-backed external build at a 10×-stream sort
// budget) and writes the JSON record to path or stdout.
func runBenchSnapshot(path string, opt experiments.Options) error {
	rec, err := experiments.BenchSnapshot(opt)
	if err != nil {
		return err
	}
	if path == "-" {
		return experiments.WriteBenchSnapshot(os.Stdout, rec)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.WriteBenchSnapshot(f, rec); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("benchsnapshot: %d KB snapshot, save %.0f MB/s, load %.0f MB/s\n",
		rec.SnapshotBytes/1024, rec.SaveBytesPerSec/1e6, rec.LoadBytesPerSec/1e6)
	fmt.Printf("benchsnapshot: external build %.3fs at %d KB budget (%d runs, %d KB spilled) vs %.3fs in-memory\n",
		rec.ExternalBuildSeconds, rec.SortBudgetBytes/1024, rec.SpillRuns, rec.SpillBytes/1024, rec.InMemoryBuildSeconds)
	fmt.Printf("wrote the bench-snapshot record to %s\n", path)
	return nil
}

// runBenchShard runs the sharded-build bench (single-process baseline
// plus the coordinated build over loopback workers at the swept shard
// counts), writes the JSON records to path or stdout, and enforces
// the optional speedup regression floor on the best sharded row.
func runBenchShard(path string, opt experiments.Options, shardList []int, minSpeedup float64) error {
	records, err := experiments.BenchShard(opt, shardList)
	if err != nil {
		return err
	}
	checkFloor := func() error {
		if minSpeedup <= 0 {
			return nil
		}
		var best float64
		for _, r := range records {
			if r.Speedup > best {
				best = r.Speedup
			}
		}
		if best < minSpeedup {
			return fmt.Errorf("benchshard: best sharded speedup %.2fx is below the regression floor %.2fx", best, minSpeedup)
		}
		fmt.Fprintf(os.Stderr, "benchshard: floor ok (%.2fx >= %.2fx)\n", best, minSpeedup)
		return nil
	}
	if path == "-" {
		if err := experiments.WriteBenchShard(os.Stdout, records); err != nil {
			return err
		}
		return checkFloor()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.WriteBenchShard(f, records); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for _, r := range records {
		if r.Shards == 1 {
			fmt.Printf("benchshard: baseline build=%.3fs (%.0f points/s) cells=%d cores=%d\n",
				r.BuildSeconds, r.PointsPerSec, r.CellCount, r.Cores)
		} else {
			fmt.Printf("benchshard: shards=%d build=%.3fs (%.0f points/s, %.2fx) streamed=%d KB rounds=%d\n",
				r.Shards, r.BuildSeconds, r.PointsPerSec, r.Speedup, r.BytesStreamed/1024, r.MergeRounds)
		}
	}
	fmt.Printf("wrote %d bench-shard records to %s\n", len(records), path)
	return checkFloor()
}

// runBenchWAL runs the write-ahead-log bench (append throughput per
// fsync policy plus a cold replay of each log), writes the JSON
// records to path or stdout, and enforces the optional points/s
// regression floor on the best append row.
func runBenchWAL(path string, opt experiments.Options, minPPS float64) error {
	records, err := experiments.BenchWAL(opt)
	if err != nil {
		return err
	}
	checkFloor := func() error {
		if minPPS <= 0 {
			return nil
		}
		var best float64
		for _, r := range records {
			if r.AppendPointsPerSec > best {
				best = r.AppendPointsPerSec
			}
		}
		if best < minPPS {
			return fmt.Errorf("benchwal: best append throughput %.0f points/s is below the regression floor %.0f", best, minPPS)
		}
		fmt.Fprintf(os.Stderr, "benchwal: floor ok (%.0f >= %.0f points/s)\n", best, minPPS)
		return nil
	}
	if path == "-" {
		if err := experiments.WriteBenchWAL(os.Stdout, records); err != nil {
			return err
		}
		return checkFloor()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := experiments.WriteBenchWAL(f, records); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	for _, r := range records {
		fmt.Printf("benchwal: fsync=%s append=%.3fs (%.0f points/s, %.1f MB/s) replay=%.3fs (%.0f points/s) segments=%d\n",
			r.Policy, r.AppendSeconds, r.AppendPointsPerSec, r.AppendBytesPerSec/1e6, r.ReplaySeconds, r.ReplayPointsPerSec, r.Segments)
	}
	fmt.Printf("wrote %d bench-wal records to %s\n", len(records), path)
	return checkFloor()
}
