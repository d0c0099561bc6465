package experiments

// Bench-shard emission (ISSUE 10): a machine-readable record of the
// sharded build pipeline — the coordinator partitioning one on-disk
// CSV into record-aligned byte ranges, W loopback workers each
// parsing and building their shard, the snapshot streams back, and
// the pairwise merge tournament — against the single-process
// end-to-end baseline (CSV parse + serial build) over the same file.
// Every sharded row's merged tree is verified ctree.Equal to the
// serial one before the record is emitted. Cores records
// runtime.NumCPU at measurement time: speedups are bounded by it, so
// a 1-core row honestly reporting ~1x is expected, not a regression
// (CI enforces the speedup floor only on multi-core runners).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/shard"
	"mrcc/internal/synthetic"
)

// BenchShardRecord is one (shards) row of a bench-shard run.
type BenchShardRecord struct {
	Timestamp string  `json:"timestamp"`
	Dataset   string  `json:"dataset"`
	Scale     float64 `json:"scale"`
	Points    int     `json:"points"`
	Dims      int     `json:"dims"`
	H         int     `json:"h"`
	// Cores is runtime.NumCPU on the measuring machine — the hard
	// ceiling on any real speedup.
	Cores int `json:"cores"`
	// Shards is W: the worker (and byte-range) count. The shards=1 row
	// is the single-process baseline: no workers, no sockets, just CSV
	// parse + serial build + canonicalize.
	Shards int `json:"shards"`
	// BuildSeconds is the best-of-reps end-to-end wall time: partition,
	// per-shard parse+build, stream, merge, canonicalize.
	BuildSeconds float64 `json:"buildSeconds"`
	PointsPerSec float64 `json:"pointsPerSec"`
	// Speedup is the shards=1 row's BuildSeconds over this row's (0 on
	// the baseline row itself).
	Speedup float64 `json:"speedup,omitempty"`
	// BytesStreamed / MergeRounds are the coordinator's transfer and
	// tournament-depth counters (zero on the baseline row).
	BytesStreamed int64 `json:"bytesStreamed,omitempty"`
	MergeRounds   int   `json:"mergeRounds,omitempty"`
	CellCount     int64 `json:"cellCount"`
}

// BenchShard writes the bench dataset to a CSV once, measures the
// single-process end-to-end baseline, then the coordinated sharded
// build at every worker count over loopback workers (one build
// goroutine each — parallelism comes from the shard fan-out, the
// thing under test). Every sharded tree is checked ctree.Equal
// against the serial one.
func BenchShard(opt Options, shardCounts []int) ([]BenchShardRecord, error) {
	opt = opt.withDefaults()
	if len(shardCounts) == 0 {
		shardCounts = []int{2, 4, 8}
	}
	cfg := benchScanConfig(opt.Scale)
	ds, _, err := synthetic.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("benchshard: generate: %w", err)
	}
	dir, err := os.MkdirTemp("", "mrcc-benchshard-*")
	if err != nil {
		return nil, fmt.Errorf("benchshard: %w", err)
	}
	defer os.RemoveAll(dir)
	csv := filepath.Join(dir, "points.csv")
	if err := ds.SaveCSVFile(csv); err != nil {
		return nil, fmt.Errorf("benchshard: %w", err)
	}

	const reps = 3
	stamp := time.Now().UTC().Format(time.RFC3339)
	base := BenchShardRecord{
		Timestamp: stamp,
		Dataset:   "bench-15d-10c",
		Scale:     opt.Scale,
		Points:    ds.Len(),
		Dims:      ds.Dims,
		H:         core.DefaultH,
		Cores:     runtime.NumCPU(),
		Shards:    1,
	}

	// Single-process baseline: parse the CSV and build serially, the
	// exact work the sharded pipeline spreads over W processes.
	var serial *ctree.Tree
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		dsOnDisk, err := dataset.LoadCSVFile(csv, false)
		if err != nil {
			return nil, fmt.Errorf("benchshard: baseline parse: %w", err)
		}
		t, err := ctree.Build(dsOnDisk, core.DefaultH, ctree.BuildOptions{Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("benchshard: baseline build: %w", err)
		}
		secs := time.Since(start).Seconds()
		if rep == 0 || secs < base.BuildSeconds {
			base.BuildSeconds = secs
		}
		serial = t
	}
	base.PointsPerSec = float64(ds.Len()) / base.BuildSeconds
	base.CellCount = serial.CellCount()
	records := []BenchShardRecord{base}

	for _, w := range shardCounts {
		if w < 2 {
			continue // the baseline row already covers W=1
		}
		ctx, cancel := context.WithCancel(context.Background())
		addrs := make([]string, w)
		for i := range addrs {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				cancel()
				return nil, fmt.Errorf("benchshard: %w", err)
			}
			addrs[i] = l.Addr().String()
			go shard.Serve(ctx, l)
		}
		jobs, err := shard.JobsForCSV(csv, false, w, shard.Job{H: core.DefaultH, Workers: 1})
		if err != nil {
			cancel()
			return nil, fmt.Errorf("benchshard: partition (W=%d): %w", w, err)
		}
		rec := base
		rec.Shards = w
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			merged, stats, err := shard.Run(ctx, shard.Options{Addrs: addrs, Jobs: jobs})
			secs := time.Since(start).Seconds()
			if err != nil {
				cancel()
				return nil, fmt.Errorf("benchshard: sharded build (W=%d): %w", w, err)
			}
			if rep == 0 || secs < rec.BuildSeconds {
				rec.BuildSeconds = secs
			}
			rec.BytesStreamed = stats.BytesStreamed
			rec.MergeRounds = stats.MergeRounds
			rec.CellCount = merged.CellCount()
			if rep == 0 && !ctree.Equal(serial, merged) {
				cancel()
				return nil, fmt.Errorf("benchshard: W=%d merged tree diverged from the serial build", w)
			}
		}
		cancel()
		rec.PointsPerSec = float64(ds.Len()) / rec.BuildSeconds
		rec.Speedup = base.BuildSeconds / rec.BuildSeconds
		records = append(records, rec)
	}
	return records, nil
}

// WriteBenchShard renders the records as one indented JSON document.
func WriteBenchShard(w io.Writer, records []BenchShardRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}
