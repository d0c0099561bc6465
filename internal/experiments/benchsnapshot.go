package experiments

// Bench-snapshot emission (ISSUE 6): a machine-readable record of the
// persistence layer — snapshot save/load throughput over the bench
// tree, and the disk-backed external build under a sort budget of one
// tenth of the record stream (the ISSUE's "dataset ~10× the memory
// cap" scenario). The external tree is checked cell-for-cell against
// the in-memory build before the record is emitted, so a reported row
// implies the equivalence held. CI runs this at a small scale as a
// smoke test; EXPERIMENTS.md records the full-scale figures.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/synthetic"
	"mrcc/internal/treeio"
)

// BenchSnapshotRecord is the summary row of one bench-snapshot run.
type BenchSnapshotRecord struct {
	Timestamp string  `json:"timestamp"`
	Dataset   string  `json:"dataset"`
	Scale     float64 `json:"scale"`
	Points    int     `json:"points"`
	Dims      int     `json:"dims"`
	H         int     `json:"h"`
	CellCount int64   `json:"cellCount"`
	// SnapshotBytes is the on-disk size of the tree snapshot.
	SnapshotBytes int64 `json:"snapshotBytes"`
	// Save/Load are best-of-reps wall times of one SaveFile/LoadFile
	// and the corresponding byte throughputs.
	SaveSeconds     float64 `json:"saveSeconds"`
	SaveBytesPerSec float64 `json:"saveBytesPerSec"`
	LoadSeconds     float64 `json:"loadSeconds"`
	LoadBytesPerSec float64 `json:"loadBytesPerSec"`
	// TrustedLoad* time the checksum-trusting load (treeio.LoadOptions
	// TrustChecksums): per-column CRCs still verified, the structural
	// revalidation of every cell skipped. TrustedLoadSpeedup is
	// LoadSeconds over TrustedLoadSeconds.
	TrustedLoadSeconds     float64 `json:"trustedLoadSeconds,omitempty"`
	TrustedLoadBytesPerSec float64 `json:"trustedLoadBytesPerSec,omitempty"`
	TrustedLoadSpeedup     float64 `json:"trustedLoadSpeedup,omitempty"`
	// InMemoryBuildSeconds is the serial in-memory build, the baseline
	// the external build is compared against.
	InMemoryBuildSeconds float64 `json:"inMemoryBuildSeconds"`
	// SortBudgetBytes is the external build's sort-buffer cap: one
	// tenth of the record stream (StreamBytes).
	StreamBytes          int64   `json:"streamBytes"`
	SortBudgetBytes      uint64  `json:"sortBudgetBytes"`
	ExternalBuildSeconds float64 `json:"externalBuildSeconds"`
	SpillRuns            int64   `json:"spillRuns"`
	SpillBytes           int64   `json:"spillBytes"`
}

// BenchSnapshot builds the bench tree once, times snapshot save and
// load (best of reps), then times the disk-backed external build at a
// sort budget of stream/10 and verifies it reproduces the in-memory
// tree exactly.
func BenchSnapshot(opt Options) (BenchSnapshotRecord, error) {
	opt = opt.withDefaults()
	var rec BenchSnapshotRecord
	cfg := benchScanConfig(opt.Scale)
	ds, _, err := synthetic.Generate(cfg)
	if err != nil {
		return rec, fmt.Errorf("benchsnapshot: generate: %w", err)
	}
	start := time.Now()
	tree, err := ctree.Build(ds, core.DefaultH, ctree.BuildOptions{Workers: 1})
	if err != nil {
		return rec, fmt.Errorf("benchsnapshot: build: %w", err)
	}
	inMemSecs := time.Since(start).Seconds()

	dir, err := os.MkdirTemp("", "mrcc-benchsnapshot-*")
	if err != nil {
		return rec, fmt.Errorf("benchsnapshot: %w", err)
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "tree.snap")

	const reps = 3
	var saveBest, loadBest float64
	var snapBytes int64
	for rep := 0; rep < reps; rep++ {
		start = time.Now()
		n, err := treeio.SaveFile(snap, tree)
		secs := time.Since(start).Seconds()
		if err != nil {
			return rec, fmt.Errorf("benchsnapshot: save: %w", err)
		}
		if rep == 0 || secs < saveBest {
			saveBest = secs
		}
		snapBytes = n
	}
	var loaded *ctree.Tree
	for rep := 0; rep < reps; rep++ {
		start = time.Now()
		t, err := treeio.LoadFile(snap)
		secs := time.Since(start).Seconds()
		if err != nil {
			return rec, fmt.Errorf("benchsnapshot: load: %w", err)
		}
		if rep == 0 || secs < loadBest {
			loadBest = secs
		}
		loaded = t
	}
	if !ctree.Equal(tree, loaded) {
		return rec, fmt.Errorf("benchsnapshot: loaded tree diverged from the original")
	}
	var trustedBest float64
	for rep := 0; rep < reps; rep++ {
		start = time.Now()
		t, err := treeio.LoadFileOptions(snap, treeio.LoadOptions{TrustChecksums: true})
		secs := time.Since(start).Seconds()
		if err != nil {
			return rec, fmt.Errorf("benchsnapshot: trusted load: %w", err)
		}
		if rep == 0 || secs < trustedBest {
			trustedBest = secs
		}
		loaded = t
	}
	if !ctree.Equal(tree, loaded) {
		return rec, fmt.Errorf("benchsnapshot: trusted-loaded tree diverged from the original")
	}

	streamBytes := int64(ds.Len()) * int64(ctree.ExternalRecordBytes(ds.Dims, core.DefaultH))
	budget := uint64(streamBytes) / 10
	start = time.Now()
	ext, err := ctree.Build(ds, core.DefaultH, ctree.BuildOptions{MemoryLimitBytes: budget, SpillDir: dir})
	extSecs := time.Since(start).Seconds()
	if err != nil {
		return rec, fmt.Errorf("benchsnapshot: external build: %w", err)
	}
	if !ctree.Equal(tree, ext) {
		return rec, fmt.Errorf("benchsnapshot: external tree diverged from the in-memory build")
	}
	spillRuns, spillBytes := ext.SpillStats()

	return BenchSnapshotRecord{
		Timestamp:              time.Now().UTC().Format(time.RFC3339),
		Dataset:                "bench-15d-10c",
		Scale:                  opt.Scale,
		Points:                 ds.Len(),
		Dims:                   ds.Dims,
		H:                      core.DefaultH,
		CellCount:              tree.CellCount(),
		SnapshotBytes:          snapBytes,
		SaveSeconds:            saveBest,
		SaveBytesPerSec:        float64(snapBytes) / saveBest,
		LoadSeconds:            loadBest,
		LoadBytesPerSec:        float64(snapBytes) / loadBest,
		TrustedLoadSeconds:     trustedBest,
		TrustedLoadBytesPerSec: float64(snapBytes) / trustedBest,
		TrustedLoadSpeedup:     loadBest / trustedBest,
		InMemoryBuildSeconds:   inMemSecs,
		StreamBytes:            streamBytes,
		SortBudgetBytes:        budget,
		ExternalBuildSeconds:   extSecs,
		SpillRuns:              spillRuns,
		SpillBytes:             spillBytes,
	}, nil
}

// WriteBenchSnapshot renders the record as one indented JSON document.
func WriteBenchSnapshot(w io.Writer, rec BenchSnapshotRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}
