// Service counters: the always-on observability record of the
// streaming clustering service (internal/serve). Unlike the per-run
// Collector — which lives for one pipeline execution and is merged at
// chunk boundaries — these counters live for the process and are
// bumped from concurrent HTTP handlers, so every field is an atomic
// and reading produces a consistent-enough point-in-time snapshot
// (each counter is individually exact; the set is not fenced, which is
// fine for monitoring).
package obs

import "sync/atomic"

// ServiceCounters aggregates the streaming service's lifetime event
// counts. The zero value is ready to use; all methods are safe for
// concurrent use.
type ServiceCounters struct {
	batchesIngested atomic.Int64
	pointsIngested  atomic.Int64
	batchesRejected atomic.Int64
	queries         atomic.Int64
	queryHits       atomic.Int64
	queriesRejected atomic.Int64
	reclusters      atomic.Int64
	reclusterErrors atomic.Int64
	rotations       atomic.Int64
	snapshotSaves   atomic.Int64
	snapshotBytes   atomic.Int64
	walAppends      atomic.Int64
	walBytes        atomic.Int64
	walReplayed     atomic.Int64
	shedded         atomic.Int64
	checkpoints     atomic.Int64
}

// AddIngest records one accepted batch of n points.
func (c *ServiceCounters) AddIngest(n int) {
	c.batchesIngested.Add(1)
	c.pointsIngested.Add(int64(n))
}

// AddIngestRejected records one rejected ingestion request (parse
// failure, domain violation, overflow).
func (c *ServiceCounters) AddIngestRejected() { c.batchesRejected.Add(1) }

// AddQuery records one answered point query; hit reports whether the
// point landed in a cluster (as opposed to noise).
func (c *ServiceCounters) AddQuery(hit bool) {
	c.queries.Add(1)
	if hit {
		c.queryHits.Add(1)
	}
}

// AddQueryRejected records one query the service refused (malformed
// point, domain violation, or no published view yet).
func (c *ServiceCounters) AddQueryRejected() { c.queriesRejected.Add(1) }

// AddRecluster records one re-cluster pass; ok reports whether it
// published a fresh view (false for aborted or failed passes).
func (c *ServiceCounters) AddRecluster(ok bool) {
	if ok {
		c.reclusters.Add(1)
	} else {
		c.reclusterErrors.Add(1)
	}
}

// AddRotation records one window rotation (active runs retired to the
// aging slot).
func (c *ServiceCounters) AddRotation() { c.rotations.Add(1) }

// AddSnapshotSave records one tree snapshot written to disk.
func (c *ServiceCounters) AddSnapshotSave(bytes int64) {
	c.snapshotSaves.Add(1)
	c.snapshotBytes.Add(bytes)
}

// AddWALAppend records one batch appended to the write-ahead log.
func (c *ServiceCounters) AddWALAppend(bytes int64) {
	c.walAppends.Add(1)
	c.walBytes.Add(bytes)
}

// AddWALReplayed records n batches replayed from the write-ahead log
// during warm-start recovery.
func (c *ServiceCounters) AddWALReplayed(n int) { c.walReplayed.Add(int64(n)) }

// AddShedded records one ingest request refused by admission control
// (the in-flight bound was saturated; the client got 429).
func (c *ServiceCounters) AddShedded() { c.shedded.Add(1) }

// AddCheckpoint records one completed checkpoint (snapshot saved and
// the covered WAL prefix truncated).
func (c *ServiceCounters) AddCheckpoint() { c.checkpoints.Add(1) }

// ServiceSnapshot is a point-in-time copy of the counters, shaped for
// JSON (the service's GET /stats embeds one).
type ServiceSnapshot struct {
	BatchesIngested int64 `json:"batchesIngested"`
	PointsIngested  int64 `json:"pointsIngested"`
	BatchesRejected int64 `json:"batchesRejected"`
	Queries         int64 `json:"queries"`
	QueryHits       int64 `json:"queryHits"`
	QueriesRejected int64 `json:"queriesRejected"`
	Reclusters      int64 `json:"reclusters"`
	ReclusterErrors int64 `json:"reclusterErrors"`
	Rotations       int64 `json:"rotations"`
	SnapshotSaves   int64 `json:"snapshotSaves"`
	SnapshotBytes   int64 `json:"snapshotBytes"`
	WALAppends      int64 `json:"walAppends"`
	WALBytes        int64 `json:"walBytes"`
	WALReplayed     int64 `json:"walReplayed"`
	SheddedRequests int64 `json:"sheddedRequests"`
	Checkpoints     int64 `json:"checkpoints"`
}

// Snapshot returns a point-in-time copy of the counters.
func (c *ServiceCounters) Snapshot() ServiceSnapshot {
	return ServiceSnapshot{
		BatchesIngested: c.batchesIngested.Load(),
		PointsIngested:  c.pointsIngested.Load(),
		BatchesRejected: c.batchesRejected.Load(),
		Queries:         c.queries.Load(),
		QueryHits:       c.queryHits.Load(),
		QueriesRejected: c.queriesRejected.Load(),
		Reclusters:      c.reclusters.Load(),
		ReclusterErrors: c.reclusterErrors.Load(),
		Rotations:       c.rotations.Load(),
		SnapshotSaves:   c.snapshotSaves.Load(),
		SnapshotBytes:   c.snapshotBytes.Load(),
		WALAppends:      c.walAppends.Load(),
		WALBytes:        c.walBytes.Load(),
		WALReplayed:     c.walReplayed.Load(),
		SheddedRequests: c.shedded.Load(),
		Checkpoints:     c.checkpoints.Load(),
	}
}
