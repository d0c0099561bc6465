// Durability layer of the streaming service: the write-ahead ingest
// log and the checkpoint protocol that together make an acknowledged
// batch survive a crash.
//
// The contract (DESIGN.md §13): handleIngest appends the normalized
// batch to the WAL *before* folding it into the window, and only
// acknowledges after both. Warm-start loads the newest checkpoint
// snapshot — whose trailer records the last WAL sequence it covers —
// and replays only the records past that sequence, so recovery applies
// every acknowledged batch exactly once. Because tree composition is
// order-independent and bit-identical (pinned by the ctree suite), the
// recovered window equals the window a no-crash run would hold.
//
// A checkpoint is: capture the window's runs and the applied sequence
// under one lock hold, save the snapshot with that sequence
// in its trailer, then truncate the WAL segments the snapshot covers.
// A crash between the save and the truncate leaves extra WAL records
// behind, but replay filters them by sequence — the window is
// double-apply-safe by construction, and the kill-matrix test
// (recovery_fault_test.go) proves it at every injection point.
package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"mrcc/internal/fault"
	"mrcc/internal/wal"
)

// errDurability marks ingest failures in the durability path (WAL
// append or the post-append fold). They surface as 500s, not 422s:
// the request was well-formed, the service could not persist it.
var errDurability = errors.New("durability")

// batchHeaderSize prefixes every WAL payload: u32 dims, u32 count.
const batchHeaderSize = 8

// encodeBatch renders a normalized batch as a WAL record payload:
// u32 dims, u32 count, then count×dims little-endian float64 values.
// The payload holds *normalized* coordinates — replay feeds them back
// into the fold (apply) without re-running domain validation, so a
// replayed batch is bit-identical to the original fold.
func encodeBatch(pts [][]float64) []byte {
	d := len(pts[0])
	buf := make([]byte, batchHeaderSize+len(pts)*d*8)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(d))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(pts)))
	off := batchHeaderSize
	for _, p := range pts {
		for _, v := range p {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
	}
	return buf
}

// decodeBatch parses a WAL record payload back into a point batch.
// Structural violations (wrong dims, size mismatch) are errors — a
// record that passed the WAL's CRC but does not parse means the log
// belongs to a differently-configured service, and boot must refuse it
// rather than fold garbage into the tree.
func decodeBatch(b []byte, wantDims int) ([][]float64, error) {
	if len(b) < batchHeaderSize {
		return nil, fmt.Errorf("payload holds %d bytes, want at least %d", len(b), batchHeaderSize)
	}
	d := int(binary.LittleEndian.Uint32(b[0:4]))
	n := int(binary.LittleEndian.Uint32(b[4:8]))
	if d != wantDims {
		return nil, fmt.Errorf("batch dimensionality %d, this service is configured for %d", d, wantDims)
	}
	if n < 1 {
		return nil, errors.New("empty batch record")
	}
	want := batchHeaderSize + n*d*8
	if len(b) != want {
		return nil, fmt.Errorf("payload holds %d bytes, header declares %d", len(b), want)
	}
	pts := make([][]float64, n)
	flat := make([]float64, n*d)
	off := batchHeaderSize
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	for i := range pts {
		pts[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	return pts, nil
}

// openWAL opens the configured write-ahead log and replays its tail
// into the freshly warm-started window. ckptSeq is the sequence the
// loaded snapshot declares covered (0 for a cold start or a plain
// snapshot); only records past it are applied. Runs during New, before
// any HTTP traffic, so its folds need no ingestMu.
func (s *Server) openWAL(ckptSeq uint64) error {
	policy, err := wal.ParseSyncPolicy(s.cfg.WALSync)
	if err != nil {
		return err
	}
	l, err := wal.Open(s.cfg.WALDir, wal.Options{
		Sync:         policy,
		SyncEvery:    s.cfg.WALSyncEvery,
		SegmentBytes: s.cfg.WALSegmentBytes,
	})
	if err != nil {
		return err
	}
	// A log that is entirely behind the snapshot must not re-issue
	// sequences the snapshot already covers: the next append continues
	// past the checkpoint (dropping the covered records, which replay
	// would skip anyway).
	if err := l.EnsureNextSeq(ckptSeq + 1); err != nil {
		l.Close()
		return err
	}
	s.appliedSeq = ckptSeq
	replayed, points, rotations := 0, 0, 0
	err = l.Replay(ckptSeq, func(seq uint64, payload []byte) error {
		pts, err := decodeBatch(payload, s.cfg.Dims)
		if err != nil {
			return fmt.Errorf("wal record %d: %w", seq, err)
		}
		// Replay folds through the live step (apply), so it rotates by
		// the live rule and rebuilds the live window's runs; a tail
		// spanning many windows never piles into one window either,
		// which could overrun ctree.MaxPoints on a log the live service
		// acknowledged in full. It counts no ingest and kicks no pass: Start runs
		// the first pass over the recovered window.
		rotated, err := s.apply(pts, seq)
		if err != nil {
			return fmt.Errorf("wal record %d: %w", seq, err)
		}
		if rotated {
			rotations++
		}
		replayed++
		points += len(pts)
		return nil
	})
	if err != nil {
		l.Close()
		return err
	}
	s.wal = l
	s.counters.AddWALReplayed(replayed)
	if replayed > 0 {
		s.logf("warm-start: replayed %d batches (%d points, %d window rotations) from the WAL tail past sequence %d", replayed, points, rotations, ckptSeq)
	}
	return nil
}

// ingestDurable is the WAL-backed fold: append the batch to the log,
// then fold it into the window. ingestMu serializes the pairs so WAL
// order is exactly apply order; s.mu is still what guards the runs, and
// apply holds it only around its reads and its swap (queries and stats
// never touch ingestMu).
//
// The fold after a successful append must not fail — the batch is
// already promised to recovery — so capacity is checked before the
// append. Points are normalized, so the build's own validation cannot
// trip either. An append failure leaves the log sticky-broken
// (torn bytes may be on disk); every later ingest fails with the same
// 500 until a restart reopens and truncates the tear. An append that
// wrote but failed to fsync may survive a crash: recovery then holds a
// batch the client saw a 500 for — the documented at-least-once edge.
// Acknowledged batches are exactly-once.
func (s *Server) ingestDurable(norm [][]float64) (int64, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()

	s.mu.Lock()
	err := s.checkRoom(len(norm))
	s.mu.Unlock()
	if err != nil {
		// Only ingests grow the active runs and they all hold ingestMu,
		// so the room can only have grown by the time we fold below.
		return 0, err
	}

	payload := encodeBatch(norm)
	seq, err := s.wal.Append(payload)
	if err != nil {
		return 0, fmt.Errorf("%w: wal append: %v", errDurability, err)
	}
	s.counters.AddWALAppend(int64(len(payload)))

	total, err := s.fold(norm, seq)
	if err != nil {
		// Unreachable by construction (capacity pre-checked, points
		// normalized); if it ever fires the WAL is ahead of the window
		// and only a restart replay reconciles them.
		return 0, fmt.Errorf("%w: fold after wal append: %v", errDurability, err)
	}
	return total, nil
}

// checkpoint persists the merged window with the applied WAL sequence
// in the snapshot trailer, then truncates the WAL segments the snapshot
// covers. The runs and the sequence are captured under one lock hold,
// so the snapshot declares exactly the batches it contains. The
// fault.Checkpoint injection point sits between the two steps: a crash
// there leaves covered records in the log, and replay's sequence
// filter makes that harmless.
//
// ckptMu makes the whole save-then-truncate protocol single-flight.
// The timer loop, POST /snapshot/save and the shutdown epilogue can
// all call here; if two checkpoints interleaved, the one that captured
// the older sequence could rename its snapshot into place after the
// newer one already truncated the log — the on-disk snapshot would
// then declare a coverage the removed segments no longer back, and the
// next boot would lose acknowledged batches.
func (s *Server) checkpoint() (int64, error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	n, seq, err := s.saveWindow()
	if err != nil {
		return 0, err
	}
	if err := fault.Inject(fault.Checkpoint); err != nil {
		return n, err
	}
	if err := s.wal.TruncateTo(seq); err != nil {
		return n, err
	}
	s.counters.AddCheckpoint()
	s.ckptSeq.Store(seq)
	s.ckptNano.Store(time.Now().UnixNano())
	return n, nil
}

// checkpointLoop checkpoints on the configured cadence until ctx is
// cancelled. An empty service is not an error (nothing to cover yet);
// real failures are logged and retried next tick — the WAL keeps
// growing in the meantime, so nothing is lost, only un-truncated.
func (s *Server) checkpointLoop(ctx context.Context) {
	defer close(s.ckptDone)
	t := time.NewTicker(s.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if _, err := s.checkpoint(); err != nil && !errors.Is(err, errNothingIngested) && ctx.Err() == nil {
			s.logf("checkpoint: %v", err)
		}
	}
}
