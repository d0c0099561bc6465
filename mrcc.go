// Package mrcc implements MrCC (Multi-resolution Correlation Cluster
// detection), the correlation / subspace clustering method of Cordeiro,
// Traina, Faloutsos and Traina Jr., "Finding Clusters in Subspaces of
// Very Large, Multi-dimensional Datasets", ICDE 2010.
//
// MrCC finds clusters that exist in subspaces of a 5-to-30-dimensional
// dataset together with the axes relevant to each cluster. It is
// deterministic, needs no "number of clusters" parameter, performs no
// distance calculations, and is linear in the number of points.
//
// Basic use:
//
//	ds, err := mrcc.DatasetFromRows(rows) // raw data, any scale
//	res, err := mrcc.Run(ctx, mrcc.Input{Dataset: ds}, mrcc.Config{})
//
// res.Labels assigns every input point a cluster ID or mrcc.Noise;
// res.Clusters carries each cluster's relevant axes. Run is the one
// entry point: setting Input.Tree reclusters a Counting-tree kept from
// an earlier run (Config.KeepTree) or loaded from a snapshot (LoadTree)
// instead of building one.
package mrcc

import (
	"context"
	"errors"
	"fmt"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/fault"
	"mrcc/internal/obs"
	"mrcc/internal/treeio"
)

// Noise is the label assigned to points belonging to no cluster.
const Noise = core.Noise

// DefaultAlpha is the significance level used when Config.Alpha is zero;
// it is the value the paper fixes for all experiments.
const DefaultAlpha = core.DefaultAlpha

// DefaultH is the Counting-tree resolution count used when Config.H is
// zero; the paper shows H = 4 suffices for most datasets.
const DefaultH = core.DefaultH

// Config controls a MrCC run. The zero value selects the paper's
// recommended configuration (α = 1e-10, H = 4, face-only mask).
type Config = core.Config

// Result is the outcome of a MrCC run: β-clusters, correlation clusters
// and per-point labels.
type Result struct {
	// Betas are the β-clusters in discovery order.
	Betas []BetaCluster
	// Clusters are the correlation clusters.
	Clusters []Cluster
	// Labels assigns each input point its cluster ID, or Noise.
	Labels []int
	// TreeMemoryBytes estimates the Counting-tree footprint, its level
	// indexes included.
	TreeMemoryBytes uint64
	// Stats is the run's one observability record, the paper's three
	// phases among its phase rows; nil unless Config.CollectStats.
	Stats *Stats
	// Tree is the Counting-tree the run clustered on; nil unless
	// Config.KeepTree. Pass it to SaveTree, or back to Run as
	// Input.Tree.
	Tree *Tree
}

// NumClusters returns γk, the number of correlation clusters.
func (r *Result) NumClusters() int { return len(r.Clusters) }

// Cluster is one correlation cluster.
type Cluster = core.Cluster

// BetaCluster is one β-cluster (a dense hyper-rectangular region in a
// subspace, the building block of correlation clusters).
type BetaCluster = core.BetaCluster

// Stats is a run's one observability record: per-phase wall times,
// runtime.MemStats deltas and pipeline counters. Result.Stats carries
// it when Config.CollectStats, the record's one switch, is set; the
// paper's three phases are its TreeBuild row, its LevelIndex plus
// BetaSearch rows, and its ClusterMerge plus Labeling rows. It
// marshals to JSON and renders a human table via Stats.Format.
type Stats = obs.Stats

// PhaseStat aggregates one phase's wall time and memory movement.
type PhaseStat = obs.PhaseStat

// Phase identifies one stage of the pipeline in Stats
// (obs.PhaseNormalize .. obs.PhaseLabeling).
type Phase = obs.Phase

// PipelineError reports a run that was aborted mid-flight: context
// cancellation or deadline expiry, an injected fault (test builds
// only), or a worker panic contained by the pipeline. It names the
// interrupted phase and carries the partial Stats collected up to the
// abort. Unwrap yields the cause, so errors.Is(err, context.Canceled)
// and friends work through it.
type PipelineError = core.PipelineError

// ResourceError reports that Config.MemoryLimitBytes refused the run's
// Counting-tree (after Config.DegradeOnMemoryLimit exhausted its
// retries, if set).
type ResourceError = core.ResourceError

// PanicError carries a panic recovered from inside the pipeline — the
// value and the stack of the panicking goroutine. It always arrives
// wrapped in a *PipelineError; use errors.As to extract it.
type PanicError = fault.PanicError

// Dataset is the in-memory dataset container. See the dataset helpers
// re-exported below for construction and I/O.
type Dataset = dataset.Dataset

// Tree is the Counting-tree MrCC clusters on: the multi-resolution
// count structure built in phase one. Obtain one with NewTree or
// Config.KeepTree (Result.Tree), persist it with SaveTree, restore it
// with LoadTree, and recluster on it with Run (Input.Tree) — e.g. to
// sweep α values without re-counting the data, or to warm-start a run
// from a snapshot built by an earlier process. Each such run builds the
// level index it searches again (Stats.LevelIndex), as every run does;
// a Tree holds no index, only its counts. It holds the tree as
// immutable runs whose counts add up (one run once built or loaded);
// its layout is private. A zero Tree holds no Counting-tree, and the
// calls that need one refuse it with an error.
//
// No call but InsertBatch writes a Tree: Run, SaveTree, Points and
// MemoryBytes only read it, so any number of them may run at the same
// time over one Tree. InsertBatch replaces the Tree's run list, so it
// must not overlap any other call on the same Tree.
type Tree struct {
	runs ctree.Runs
}

// NewTree returns an empty Counting-tree of dimensionality d with h
// resolutions, ready for incremental growth: feed it normalized
// batches with InsertBatch and recluster at any time with Run
// (Input.Tree) — the streaming loop the examples/streaming program and
// the mrcc-serve service run. Pass DefaultH for the paper's resolution
// count.
func NewTree(d, h int) (*Tree, error) {
	if d < 1 || d > ctree.MaxDims {
		return nil, fmt.Errorf("mrcc: dimensionality %d outside [1, %d]", d, ctree.MaxDims)
	}
	if h < ctree.MinLevels || h > ctree.MaxLevels {
		return nil, fmt.Errorf("mrcc: H %d outside [%d, %d]", h, ctree.MinLevels, ctree.MaxLevels)
	}
	return &Tree{runs: ctree.Runs{ctree.New(d, h)}}, nil
}

// list returns the runs t holds, or an error for a nil or zero Tree.
func (t *Tree) list() (ctree.Runs, error) {
	if t == nil || len(t.runs) == 0 {
		return nil, errors.New("mrcc: nil or zero Tree; make one with NewTree or LoadTree")
	}
	return t.runs, nil
}

// InsertBatch counts a batch of points, each with the tree's
// dimensionality and normalized into [0,1)^d, into the tree. A batch
// with an invalid point is refused whole and leaves the tree as it was.
// The batch is counted into a run of its own, and the newest runs are
// united while the newest holds at least half the points of the one
// before it, so a point is rewritten about log2(n/b) times over n
// points fed in batches of b: feeding a tree costs O(n·log(n/b)),
// linear in its calls, and a Run over the tree reads its runs side by
// side.
func (t *Tree) InsertBatch(points [][]float64) error {
	runs, err := t.list()
	if err != nil {
		return err
	}
	t.runs, err = runs.Add(points, runs[0].D, runs[0].H)
	return err
}

// Points returns the number of points counted into the tree.
func (t *Tree) Points() int {
	runs, _ := t.list()
	return runs.Points()
}

// MemoryBytes returns the tree's footprint in bytes, its runs' sum.
func (t *Tree) MemoryBytes() uint64 {
	runs, _ := t.list()
	return runs.MemoryBytes()
}

// TreeFormatError reports a snapshot file LoadTree refused: wrong
// magic or version, inconsistent geometry, a checksum mismatch, or
// column data that does not describe a well-formed tree. Every load
// failure is one of these (or an *os.PathError from the filesystem) —
// a corrupt snapshot can never produce a silently wrong tree.
type TreeFormatError = treeio.FormatError

// SaveTree atomically writes the tree to path in the versioned binary
// snapshot format (DESIGN.md §10): the file appears complete or not at
// all. A tree grown in several runs is saved as their union, which is
// Build's tree of the same points byte for byte. It returns the number
// of bytes written.
func SaveTree(path string, t *Tree) (int64, error) {
	runs, err := t.list()
	if err != nil {
		return 0, err
	}
	ct := runs[0]
	if len(runs) > 1 {
		if ct, err = ctree.Union(runs...); err != nil {
			return 0, err
		}
	}
	return treeio.SaveFile(path, ct, treeio.Meta{})
}

// LoadTree reads a snapshot written by SaveTree, fully validating it —
// header geometry, per-column checksums, and tree invariants — before
// returning. Failures carry a *TreeFormatError.
func LoadTree(path string) (*Tree, error) {
	t, _, err := treeio.LoadFile(path, treeio.LoadOptions{})
	if err != nil {
		return nil, err
	}
	return &Tree{runs: ctree.Runs{t}}, nil
}

// NewDataset returns an empty dataset of dimensionality d with capacity
// for n points.
func NewDataset(d, n int) *Dataset { return dataset.New(d, n) }

// DatasetFromRows builds a dataset from rows of equal length; the rows
// are used directly, not copied.
func DatasetFromRows(rows [][]float64) (*Dataset, error) { return dataset.FromRows(rows) }

// LoadCSV reads a dataset from a CSV file; header selects whether the
// first record is an axis-name header.
func LoadCSV(path string, header bool) (*Dataset, error) {
	return dataset.LoadCSVFile(path, header)
}

// Input says what Run clusters. Dataset, at any scale, is required.
// With Tree set, Run skips the tree build and clusters Tree, labeling
// Dataset against it: Tree must have counted the same points (by a run
// with Config.KeepTree, say, restored with LoadTree or fed with
// InsertBatch), and its dimensionality and point count are checked.
// A run writes nothing it reads: not Tree and not Dataset. So rerunning
// on the same tree yields the same Result, and runs over one Tree may
// run at the same time, from any number of goroutines. Only
// Tree.InsertBatch must not overlap another call on that Tree. With
// Config.KeepTree the Result hands Tree back. A nil Tree asks Run to
// build one; a zero Tree is refused with an error.
type Input struct {
	Dataset *Dataset
	Tree    *Tree
}

// Run validates in.Dataset, min–max normalizes a copy into [0,1)^d
// when the data is not already there (the caller's dataset is never
// mutated, aborted run or not), and runs MrCC over it, with or without
// in.Tree. Build the dataset from raw rows with DatasetFromRows. When
// Config.CollectStats is set, Result.Stats records the run, its
// normalization pass as the Normalize phase; nothing reports while the
// run runs.
//
// Cancellation or deadline expiry of ctx aborts the pipeline
// cooperatively — every phase polls ctx at chunk boundaries, so the
// abort lands within one chunk of work — and the run returns a
// *PipelineError naming the interrupted phase and carrying the partial
// Stats. A background context adds no observable overhead. Panics
// inside the pipeline (including worker goroutines) are contained and
// surface as a *PipelineError wrapping a *PanicError instead of
// crashing the host.
func Run(ctx context.Context, in Input, cfg Config) (*Result, error) {
	res, err := run(ctx, in, cfg)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Betas:           res.Betas,
		Clusters:        res.Clusters,
		Labels:          res.Labels,
		TreeMemoryBytes: res.TreeMemoryBytes,
		Stats:           res.Stats,
	}
	if cfg.KeepTree {
		out.Tree = in.Tree
		if out.Tree == nil {
			out.Tree = &Tree{runs: ctree.Runs{res.Tree}}
		}
	}
	return out, nil
}

// run is Run returning core's Result, which RunDataset hands on.
func run(ctx context.Context, in Input, cfg Config) (*core.Result, error) {
	ds := in.Dataset
	if ds == nil {
		return nil, errors.New("mrcc: Input.Dataset is required")
	}
	var cin core.Input
	if in.Tree != nil {
		runs, err := in.Tree.list()
		if err != nil {
			return nil, err
		}
		cin.Trees = runs
	}
	work, norm, err := normalized(ctx, ds, cfg)
	if err != nil {
		return nil, err
	}
	cin.Dataset = work
	res, err := core.Run(ctx, cin, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.CollectStats {
		res.Stats.Normalize = norm
	}
	return res, nil
}

// normalized is the facade's one normalization, which Run and
// SoftMemberships share: it validates ds and returns it as it is when
// it already lies in [0,1)^d, or else a min–max normalized clone (the
// caller's dataset is never mutated). Before the clone it polls the
// pre-normalization checkpoint, one fault.Control check: an armed
// fault point (test builds only) or a cancelled ctx aborts with a
// *PipelineError naming the normalize phase. The pass is measured into
// norm when cfg collects stats. A panic in this work is contained and
// returned as a *PipelineError wrapping a *PanicError; the core
// pipeline has its own recover.
func normalized(ctx context.Context, ds *Dataset, cfg Config) (work *Dataset, norm obs.PhaseStat, err error) {
	defer func() {
		if r := recover(); r != nil {
			work = nil
			err = &PipelineError{Phase: obs.PhaseNormalize.String(), Err: fault.NewPanicError(r)}
		}
	}()
	unit, err := ds.Check()
	if err != nil {
		return nil, norm, err
	}
	if unit {
		return ds, norm, nil
	}
	if err := fault.NewControl(ctx).Check(fault.Normalize); err != nil {
		return nil, norm, &PipelineError{Phase: obs.PhaseNormalize.String(), Err: err}
	}
	normalize := func() {
		work = ds.Clone()
		_, _, err = work.Normalize()
	}
	if cfg.CollectStats {
		norm = obs.Measure(normalize)
	} else {
		normalize()
	}
	if err != nil {
		return nil, norm, err
	}
	return work, norm, nil
}

// RunDataset is Run over ds under a background context, returning
// core's Result. perfbench is its only caller; a benchmark change moves
// perfbench to Run and removes it.
func RunDataset(ds *Dataset, cfg Config) (*core.Result, error) {
	return run(context.Background(), Input{Dataset: ds}, cfg)
}

// SoftMemberships turns a hard clustering result into posterior
// membership probabilities: an η×(k+1) matrix whose column k (k <
// NumClusters) is the probability that point i belongs to cluster k,
// with the noise probability in the last column. The rows of ds must be
// the ones the result was computed from (at any scale — the same
// normalization Run applies is repeated here).
func SoftMemberships(ds *Dataset, res *Result) ([][]float64, error) {
	work, _, err := normalized(context.TODO(), ds, Config{})
	if err != nil {
		return nil, err
	}
	return core.SoftMemberships(work, &core.Result{Clusters: res.Clusters, Labels: res.Labels})
}
