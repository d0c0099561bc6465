// Command mrcc-serve runs the MrCC streaming clustering service: it
// accepts point batches over HTTP, folds them into a live
// Counting-tree, re-runs the subspace clustering on a cadence (or
// after enough new points), and answers point-classification queries
// against the most recently published model without ever blocking
// ingestion.
//
// Usage:
//
//	mrcc-serve -dims 8 [flags]
//
// The value domain is declared up front: -domain "0:100,0:1,..."
// gives per-axis min:max bounds (one pair, comma-less, applies to all
// axes); without it values must already lie in [0,1). The API:
//
//	POST /ingest         JSON [[...],...], {"points": ...}, or text/csv
//	GET  /query?p=v,...  classify a point against the current model
//	GET  /stats          window, view, WAL and counter snapshot
//	GET  /readyz         readiness + staleness for orchestrators
//	POST /recluster      request an immediate re-cluster pass
//	POST /snapshot/save  persist the tree (see -snapshot)
//
// SIGINT/SIGTERM shut the service down gracefully; with -snapshot set,
// the tree is persisted on exit and reloaded on the next boot. Adding
// -wal-dir makes ingestion crash-safe: every acknowledged batch is in
// the write-ahead log before the 200 goes out, and a killed process
// recovers it on the next boot by replaying the log tail past the last
// checkpoint (-checkpoint-every bounds how long that replay takes).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mrcc/internal/dataset"
	"mrcc/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		dims     = flag.Int("dims", 0, "point dimensionality (required)")
		domain   = flag.String("domain", "", `per-axis value bounds "min:max[,min:max...]"; one pair applies to all axes; empty = data already in [0,1)`)
		h        = flag.Int("H", 0, "number of tree resolutions (0 = paper default)")
		alpha    = flag.Float64("alpha", 0, "significance level for the statistical test (0 = paper default)")
		workers  = flag.Int("workers", 0, "clustering worker goroutines (0 = GOMAXPROCS)")
		every    = flag.Duration("recluster-every", 15*time.Second, "re-cluster cadence (0 disables the timer)")
		everyPts = flag.Int("recluster-points", 0, "re-cluster after this many new points (0 disables)")
		window   = flag.Int("window-points", 0, "rotate the active runs after this many points; published models cover the last 1-2 windows (0 = keep everything)")
		snapshot = flag.String("snapshot", "", "tree snapshot path: warm-start source on boot, target for POST /snapshot/save and shutdown")
		walDir   = flag.String("wal-dir", "", "write-ahead log directory: batches are logged before folding and replayed on boot (empty = no WAL)")
		fsync    = flag.String("fsync", "interval", `WAL fsync policy: "always", "interval", or "none"`)
		fsyncInt = flag.Duration("fsync-interval", 100*time.Millisecond, `data-loss bound under -fsync interval`)
		ckptEv   = flag.Duration("checkpoint-every", 0, "checkpoint cadence: save the snapshot and truncate the covered WAL (0 = only on /snapshot/save and shutdown; requires -wal-dir and -snapshot)")
		inflight = flag.Int("max-inflight", 0, "concurrently processed ingest requests before shedding with 429 (0 = default 64, negative = unbounded)")
		grace    = flag.Duration("grace", 5*time.Second, "graceful-shutdown drain budget")
		maxBetas = flag.Int("max-beta-clusters", 0, "cap on β-clusters per pass (0 = unlimited)")
		quiet    = flag.Bool("quiet", false, "suppress service logs")
	)
	flag.Parse()

	if *dims < 1 {
		log.Fatalf("mrcc-serve: -dims is required (got %d)", *dims)
	}
	min, max, err := dataset.ParseDomain(*domain, *dims)
	if err != nil {
		log.Fatalf("mrcc-serve: -domain: %v", err)
	}
	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	srv, err := serve.New(serve.Config{
		Dims:            *dims,
		Min:             min,
		Max:             max,
		H:               *h,
		Alpha:           *alpha,
		Workers:         *workers,
		MaxBetaClusters: *maxBetas,
		ReclusterEvery:  *every,
		ReclusterPoints: *everyPts,
		WindowPoints:    *window,
		SnapshotPath:    *snapshot,
		WALDir:          *walDir,
		WALSync:         *fsync,
		WALSyncEvery:    *fsyncInt,
		CheckpointEvery: *ckptEv,
		MaxInFlight:     *inflight,
		Logf:            logf,
	})
	if err != nil {
		log.Fatalf("mrcc-serve: %v", err)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("mrcc-serve: %v", err)
	}
	// The smoke test (and anyone using -addr :0) parses this line for
	// the resolved port, so it goes to stdout unconditionally.
	fmt.Printf("mrcc-serve listening on %s\n", l.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Run(ctx, l, *grace); err != nil {
		log.Fatalf("mrcc-serve: %v", err)
	}
	logf("mrcc-serve: shut down cleanly")
}
