// Package shard is the multi-process Counting-tree build pipeline: a
// coordinator partitions the input dataset, hands each partition to a
// worker process over TCP, and collects the returned shard trees.
//
// The paper's tree build is a sum of per-point count increments, so it
// is associative and order-independent — the property the in-process
// equivalence suites pin bit-identically and this package exploits
// across processes and machines (the multi-tree statistics program of
// Gray & Moore is the template). Each worker runs the ordinary
// radix/arena build (ctree.Build) over its shard and streams the
// finished tree back as a size-prefixed treeio snapshot — the snapshot
// format IS the wire format, so a captured stream can be spooled to
// disk and inspected with the ordinary tooling. Run returns the W shard
// trees in shard order and merges nothing: core.Run clusters
// them as they are, through the level index over their union, and
// ctree.Union writes them as one tree where one is needed. The union is
// written in the canonical arena order Build creates, so it holds the
// serial-equivalence guarantee in its strongest form: it is not merely
// ctree.Equal to the single-process build — it re-saves
// byte-identically through treeio.
//
// Failure semantics: every worker-side failure (dial, a refused job, a
// died-mid-stream connection, a corrupt snapshot) surfaces at the
// coordinator as a typed *WorkerError naming the shard and address;
// the first failing shard (by index) wins, and in-flight peers are
// abandoned by closing their connections. Nothing is spooled through
// temporary files, so there is nothing to orphan.
package shard

import (
	"fmt"

	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
)

// JobKind selects what a worker reads to build its shard tree.
type JobKind string

const (
	// KindCSV builds from a byte range of a CSV file (or the whole
	// file when the range is empty) readable on the worker's host.
	KindCSV JobKind = "csv"
	// KindSnapshot loads a prebuilt treeio snapshot instead of
	// building — the path for fan-in of trees built elsewhere.
	KindSnapshot JobKind = "snapshot"
)

// Job describes one shard's work order, sent coordinator → worker as
// the JSON payload of a request frame. Paths are resolved on the
// WORKER's host: local spawn mode shares the filesystem, remote
// deployments pre-place per-worker inputs.
type Job struct {
	// Shard is the shard index; it places the shard's tree in Run's
	// result and names the shard in errors.
	Shard int `json:"shard"`
	// Kind selects the input form (KindCSV or KindSnapshot).
	Kind JobKind `json:"kind"`
	// Path is the input file on the worker's host.
	Path string `json:"path"`
	// Start/End bound the half-open byte range of a KindCSV Path this
	// shard parses. Both zero means the whole file. Ranges must begin
	// at a record boundary (PartitionCSV guarantees it).
	Start int64 `json:"start,omitempty"`
	End   int64 `json:"end,omitempty"`
	// Header marks the first record of the read range as a header row
	// to skip (only sensible for whole-file reads; PartitionCSV-cut
	// ranges never include the header).
	Header bool `json:"header,omitempty"`
	// Dims is the expected dimensionality; 0 accepts whatever the
	// input holds. Mismatches are refused, not truncated.
	Dims int `json:"dims,omitempty"`
	// H is the resolution count of the shard tree, in
	// [ctree.MinLevels, ctree.MaxLevels]. Every job of one build must
	// agree (ctree.Union refuses mixed geometry).
	H int `json:"h"`
	// Min/Max declare the per-axis value domain. When set, the worker
	// maps values into [0,1)^d exactly like the streaming service
	// (out = (v-Min)·(1-ε)/(Max-Min)) and refuses out-of-domain
	// points; when nil, values must already lie in [0,1).
	Min []float64 `json:"min,omitempty"`
	Max []float64 `json:"max,omitempty"`
	// Workers is the in-process build parallelism of the shard build
	// (ctree.BuildOptions.Workers); <= 0 selects GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
}

// validate refuses jobs that could not possibly build.
func (j *Job) validate() error {
	switch j.Kind {
	case KindCSV, KindSnapshot:
	default:
		return fmt.Errorf("unknown job kind %q", j.Kind)
	}
	if j.Path == "" {
		return fmt.Errorf("job has no input path")
	}
	if j.H < ctree.MinLevels || j.H > ctree.MaxLevels {
		return fmt.Errorf("job H=%d is outside [%d, %d]", j.H, ctree.MinLevels, ctree.MaxLevels)
	}
	if j.Start < 0 || j.End < j.Start {
		return fmt.Errorf("byte range [%d, %d) is invalid", j.Start, j.End)
	}
	if (j.Min == nil) != (j.Max == nil) {
		return fmt.Errorf("domain bounds disagree: %d mins, %d maxs", len(j.Min), len(j.Max))
	}
	_, err := dataset.NewDomain(j.Min, j.Max)
	return err
}

// WorkerError reports a shard whose work order failed — a dial error,
// a job the worker refused, a connection that died mid-stream, or a
// snapshot that failed validation on receipt. The coordinator returns
// the failing shard with the lowest index.
type WorkerError struct {
	// Shard is the failing shard's index.
	Shard int
	// Addr is the worker address the shard was assigned to (empty
	// when the failure happened before an address was chosen).
	Addr string
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *WorkerError) Error() string {
	if e.Addr == "" {
		return fmt.Sprintf("shard %d: %v", e.Shard, e.Err)
	}
	return fmt.Sprintf("shard %d (worker %s): %v", e.Shard, e.Addr, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *WorkerError) Unwrap() error { return e.Err }
