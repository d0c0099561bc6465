// Package fault is the pipeline's deterministic fault-injection
// harness. Named injection points sit at every phase boundary and
// inside every worker chunk loop of the MrCC pipeline; a test built
// with the `fault` tag arms a point with an error (or a panic) and the
// pipeline trips it exactly once, at a deterministic call count.
//
// Production builds pay zero cost: without the tag, Inject is an
// inlined `return nil` and the registry does not exist. The injected
// error is wrapped in *Error so the pipeline can tell a deliberate
// fault from an organic failure (core treats it like a cancellation
// and aborts cleanly with a *PipelineError).
package fault

import "fmt"

// Injection point names. Each names the checkpoint the pipeline polls:
// phase boundaries poll once per phase, chunk points once per worker
// chunk segment (so cancellation latency is bounded by one segment).
const (
	// BuildChunk fires in ctree.Build's sort phase, once per chunk of
	// points a worker quantizes and sorts (in memory or for a spilled
	// run).
	BuildChunk = "ctree.build.chunk"
	// BuildMerge fires in ctree.Build's k-way merge, once per chunk of
	// merged records and once at the end.
	BuildMerge = "ctree.build.merge"
	// ScanPass fires at the top of each β-search restart pass.
	ScanPass = "core.scan.pass"
	// ScanLevel fires before each per-level convolution-cache build.
	ScanLevel = "core.scan.level"
	// ScanChunk fires inside the convolution scan worker loops
	// (cache build segments, naive chunk scans, cached skip-scans).
	ScanChunk = "core.scan.chunk"
	// BetaTest fires before each null-hypothesis test.
	BetaTest = "core.betaTest"
	// Merge fires before the correlation-cluster union-find.
	Merge = "core.merge"
	// LabelChunk fires inside the point-labeling worker loops, once
	// per segment.
	LabelChunk = "core.label.chunk"
	// Normalize fires in the facade before the normalization pass.
	Normalize = "facade.normalize"
	// WALAppend fires in the middle of a write-ahead-log record write,
	// after the record header went out but before the payload — firing
	// it models a crash that tears a record in half.
	WALAppend = "wal.append"
	// WALSync fires before the fsync the log's sync policy demands —
	// firing it models a crash after the write but before durability.
	WALSync = "wal.fsync"
	// WALRotate fires at the top of a segment rotation, before the old
	// segment is sealed.
	WALRotate = "wal.rotate"
	// Checkpoint fires in the streaming service between saving a
	// checkpoint snapshot and truncating the WAL segments it covers —
	// firing it models the crash window that must be double-apply-safe.
	Checkpoint = "serve.checkpoint"
	// ShardStream fires in a shard worker mid-way through streaming its
	// snapshot back to the coordinator, after the size prefix went out —
	// firing it models a worker dying with a half-sent tree on the wire.
	ShardStream = "shard.stream"
)

// Error wraps an injected fault so the pipeline (and tests) can
// distinguish deliberate injections from organic failures with
// errors.As.
type Error struct {
	// Point is the injection point that fired.
	Point string
	// Err is the error the test armed the point with.
	Err error
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault injected at %s: %v", e.Point, e.Err)
}

// Unwrap exposes the armed error to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }
