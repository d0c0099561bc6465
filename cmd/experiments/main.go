// Command experiments regenerates the tables and figures of the paper's
// evaluation section. Every figure of Section IV has a runner; -list
// shows the mapping.
//
// Usage:
//
//	experiments -list
//	experiments -fig fig5-first [-scale 0.1] [-methods MrCC,LAC] [-sweep] [-workers 0]
//	experiments -fig all -scale 0.05 [-csv out.csv]
//
// Per-layer throughput (tree build, β-search, WAL append, sharded
// build) is measured by each package's own go test -bench targets;
// scripts/bench_floors.sh runs them against the CI floors.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
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
		workers = flag.Int("workers", 0, "MrCC pipeline parallelism (0 = all CPUs, 1 = serial)")
		csvOut  = flag.String("csv", "", "also export the measurements to this CSV file")
	)
	flag.Parse()
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "experiments: -workers must be >= 0, got %d\n", *workers)
		os.Exit(2)
	}
	if *list {
		for _, f := range experiments.FigureIDs() {
			fmt.Printf("%-14s %s\n", f.ID, f.Description)
		}
		return
	}
	if *fig == "" {
		fmt.Fprintln(os.Stderr, "experiments: -fig is required (or -list)")
		flag.Usage()
		os.Exit(2)
	}
	opt := experiments.Options{Scale: *scale, HarpCap: *harpCap, Sweep: *sweep, Workers: *workers}
	if *methods != "" {
		opt.Methods = strings.Split(*methods, ",")
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
