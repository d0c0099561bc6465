// Package wal is the streaming service's write-ahead ingest log: a
// directory of append-only segment files recording every accepted
// point batch before it is folded into the live Counting-tree. The
// tree itself is checkpointed on a cadence (internal/treeio snapshots
// carry the last covered sequence number); the WAL is the durable
// record of everything since, so a process killed at any instant
// recovers by loading the snapshot and replaying the log tail —
// bit-identically, because records carry a monotone batch sequence
// number and replay skips everything the checkpoint already covers.
//
// On-disk layout. A segment file opens with a 16-byte header:
//
//	offset  size  field
//	     0     8  magic "MRCCWAL\x00"
//	     8     4  format version (currently 1)
//	    12     4  CRC-32C of the first 12 bytes
//
// followed by records, each:
//
//	offset  size  field
//	     0     4  payload length n (little-endian uint32)
//	     4     4  CRC-32C of bytes [8, 16+n) — sequence + payload
//	     8     8  batch sequence number (little-endian uint64)
//	    16     n  payload (opaque to the log)
//
// Sequence numbers start at 1 and increase by exactly 1 from each
// record to the next, across segment boundaries. Segment files are
// named "%016x.wal" after a number that strictly increases with
// creation order, so a lexicographic directory listing is the log
// order.
//
// Crash tolerance. A torn write can only damage the tail of the last
// segment: Open scans every record, and on the final segment a short
// or checksum-failing record is treated as the crash artifact — the
// file is truncated back to the last intact record and appending
// resumes there. The same damage anywhere else (or in a non-final
// segment) is real corruption and surfaces as a typed *FormatError;
// the log never silently skips a record in the middle of the stream.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mrcc/internal/fault"
)

// Magic opens every segment file.
const Magic = "MRCCWAL\x00"

// Version is the segment format version this package writes.
const Version = 1

// SegmentHeaderSize is the fixed segment file header size in bytes.
const SegmentHeaderSize = 16

// recordHeaderSize is the fixed per-record header size in bytes.
const recordHeaderSize = 16

// MaxPayloadBytes caps a single record's payload. A length prefix
// beyond it is rejected before any allocation, so a corrupt or hostile
// length field cannot force a huge buffer.
const MaxPayloadBytes = 1 << 30

// DefaultSegmentBytes is the rotation threshold when Options leaves it
// zero: a segment that reaches this size is sealed and a fresh one
// started, so truncation after a checkpoint can reclaim whole files.
const DefaultSegmentBytes = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when Append makes records durable.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged batch is on
	// disk before the caller hears about it. The strongest and slowest
	// policy.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.SyncEvery of wall
	// time (appends in between are pushed to the OS but not flushed):
	// a crash loses at most the last interval's acknowledgements.
	SyncInterval
	// SyncNone never fsyncs from Append; the OS flushes on its own
	// schedule (segment seals and Close still sync). A kill -9 loses
	// only unflushed acks; a power cut can lose everything since the
	// last seal.
	SyncNone
)

// String returns the policy's flag spelling ("always", "interval",
// "none").
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses the flag spelling of a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or none)", s)
}

// Options configures Open.
type Options struct {
	// Sync selects the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the flush cadence under SyncInterval (default
	// 100ms; ignored otherwise).
	SyncEvery time.Duration
	// SegmentBytes seals a segment once it reaches this size (default
	// DefaultSegmentBytes). Records never split across segments, so a
	// segment may exceed this by one record.
	SegmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// FormatError reports a log that could not be decoded: a bad segment
// header, a checksum or sequence violation in the middle of the
// stream, or segment files whose names disagree with their contents.
type FormatError struct {
	// File is the offending segment file (base name).
	File string
	// Offset is the byte offset of the violation within the file.
	Offset int64
	// Msg describes the violation.
	Msg string
	// Err is the underlying cause, when one exists.
	Err error
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("wal: %s@%d: %s", e.File, e.Offset, e.Msg)
}

// Unwrap returns the underlying cause, if any.
func (e *FormatError) Unwrap() error { return e.Err }

// segment is one log file's in-memory summary, maintained by the scan
// at Open and by Append afterwards.
type segment struct {
	name     string // base file name
	first    uint64 // sequence of the first record; 0 when empty
	last     uint64 // sequence of the last record; 0 when empty
	size     int64  // valid bytes (header + intact records)
	ordinal  uint64 // number the file is named after
	fullPath string
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use; appends are serialized internally.
type Log struct {
	dir string
	opt Options

	mu       sync.Mutex
	segs     []*segment // log order; last is the active segment
	f        *os.File   // active segment, opened for append
	nextSeq  uint64     // sequence the next Append assigns
	lastSync time.Time
	appends  int64 // lifetime appended records (this process)
	bytes    int64 // lifetime appended bytes (this process)
	broken   error // sticky: set by a failed append, cleared only by reopening
}

// segName renders the canonical file name for ordinal n.
func segName(n uint64) string { return fmt.Sprintf("%016x.wal", n) }

// parseSegName extracts the ordinal from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if len(name) != 20 || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	n, err := strconv.ParseUint(name[:16], 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Open scans dir (created if missing), validates every segment,
// truncates a torn tail on the final segment, and returns a log ready
// to append after the last intact record. An empty directory starts a
// fresh log at sequence 1.
func Open(dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []*segment
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if n, ok := parseSegName(ent.Name()); ok {
			segs = append(segs, &segment{
				name:     ent.Name(),
				ordinal:  n,
				fullPath: filepath.Join(dir, ent.Name()),
			})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].ordinal < segs[j].ordinal })

	l := &Log{dir: dir, opt: opt, nextSeq: 1, lastSync: time.Now()}
	expect := uint64(0) // next sequence the scan demands; 0 = any start
	for i, seg := range segs {
		final := i == len(segs)-1
		if err := l.scanSegment(seg, &expect, final); err != nil {
			return nil, err
		}
	}
	// A final segment whose header never made it to disk (a crash
	// between file creation and the header write) scans to zero valid
	// bytes; drop the file entirely so the append path below starts
	// from a well-formed segment.
	if n := len(segs); n > 0 && segs[n-1].size == 0 {
		if err := os.Remove(segs[n-1].fullPath); err != nil {
			return nil, err
		}
		segs = segs[:n-1]
	}
	l.segs = segs
	if expect > 0 {
		l.nextSeq = expect
	}

	// Open (or create) the active segment for appending.
	if len(segs) == 0 {
		if err := l.newSegmentLocked(); err != nil {
			return nil, err
		}
	} else {
		tail := segs[len(segs)-1]
		f, err := os.OpenFile(tail.fullPath, os.O_WRONLY, 0)
		if err != nil {
			return nil, err
		}
		if _, err := f.Seek(tail.size, 0); err != nil {
			f.Close()
			return nil, err
		}
		l.f = f
	}
	return l, nil
}

// scanSegment validates one segment file front to back, updating the
// cross-segment sequence expectation. On the final segment a torn tail
// is truncated away; anywhere else it is a *FormatError.
func (l *Log) scanSegment(seg *segment, expect *uint64, final bool) error {
	data, err := os.ReadFile(seg.fullPath)
	if err != nil {
		return err
	}
	valid, first, last, ferr := scanRecords(seg.name, data, *expect)
	if ferr != nil {
		// A header that is present but wrong (bad magic, foreign version,
		// checksum mismatch) is corruption even on the final segment — a
		// torn write leaves a short file, not a well-formed lie.
		if !final || (valid == 0 && len(data) >= SegmentHeaderSize) {
			return ferr
		}
		// A torn write's damage extends to end of file. If an intact
		// record parses anywhere past the violation, the damage is a hole
		// in the middle of acknowledged records — corruption, not a tail
		// to quietly drop.
		next := *expect
		if last > 0 {
			next = last + 1
		}
		if intactRecordAfter(data, valid, next) {
			return ferr
		}
		// Crash artifact on the tail: drop the damaged suffix.
		if err := os.Truncate(seg.fullPath, valid); err != nil {
			return err
		}
	}
	seg.size = valid
	seg.first = first
	seg.last = last
	if last > 0 {
		*expect = last + 1
	}
	return nil
}

// scanRecords walks a segment image and returns the prefix length that
// holds the header plus every intact record, the first and last
// sequence seen, and the error describing the first violation (nil
// when the whole image is intact). expect is the sequence the first
// record must carry (0 accepts any).
func scanRecords(name string, data []byte, expect uint64) (valid int64, first, last uint64, err error) {
	ferr := func(off int64, format string, args ...any) *FormatError {
		return &FormatError{File: name, Offset: off, Msg: fmt.Sprintf(format, args...)}
	}
	if len(data) < SegmentHeaderSize {
		return 0, 0, 0, ferr(0, "file is %d bytes, shorter than the %d-byte segment header", len(data), SegmentHeaderSize)
	}
	if string(data[0:8]) != Magic {
		return 0, 0, 0, ferr(0, "bad magic %q", data[0:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != Version {
		return 0, 0, 0, ferr(8, "unsupported segment version %d (this build reads version %d)", v, Version)
	}
	if sum := crc32.Checksum(data[0:12], castagnoli); sum != binary.LittleEndian.Uint32(data[12:16]) {
		return 0, 0, 0, ferr(12, "segment header checksum mismatch")
	}
	off := int64(SegmentHeaderSize)
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < recordHeaderSize {
			return off, first, last, ferr(off, "short record header (%d trailing bytes)", len(rest))
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n > MaxPayloadBytes {
			return off, first, last, ferr(off, "payload length %d exceeds the %d-byte maximum", n, MaxPayloadBytes)
		}
		if int64(len(rest)) < recordHeaderSize+int64(n) {
			return off, first, last, ferr(off, "record declares %d payload bytes, %d remain", n, len(rest)-recordHeaderSize)
		}
		want := binary.LittleEndian.Uint32(rest[4:8])
		if sum := crc32.Checksum(rest[8:recordHeaderSize+int(n)], castagnoli); sum != want {
			return off, first, last, ferr(off, "record checksum %#08x does not match the stored %#08x", sum, want)
		}
		seq := binary.LittleEndian.Uint64(rest[8:16])
		if seq == 0 {
			return off, first, last, ferr(off, "record carries sequence 0 (sequences start at 1)")
		}
		if expect != 0 && seq != expect {
			return off, first, last, ferr(off, "record carries sequence %d, the log demands %d", seq, expect)
		}
		if first == 0 {
			first = seq
		}
		last = seq
		expect = seq + 1
		off += recordHeaderSize + int64(n)
	}
	return off, first, last, nil
}

// intactRecordAfter reports whether a complete, checksum-valid record
// starts anywhere after a violation at offset from — the evidence that
// distinguishes a mid-file hole (corruption) from a torn tail (damage
// through EOF). next is the sequence the damaged record was due to
// carry (0 accepts any); a candidate must land in the window of
// sequences that could physically follow it, which keeps the CRC from
// running on arbitrary garbage.
func intactRecordAfter(data []byte, from int64, next uint64) bool {
	maxRecords := uint64(len(data)) / recordHeaderSize
	for off := from + 1; off+recordHeaderSize <= int64(len(data)); off++ {
		rest := data[off:]
		n := binary.LittleEndian.Uint32(rest[0:4])
		if int64(n) > MaxPayloadBytes || off+recordHeaderSize+int64(n) > int64(len(data)) {
			continue
		}
		seq := binary.LittleEndian.Uint64(rest[8:16])
		if seq == 0 || (next != 0 && (seq <= next || seq > next+maxRecords)) {
			continue
		}
		if crc32.Checksum(rest[8:recordHeaderSize+int(n)], castagnoli) == binary.LittleEndian.Uint32(rest[4:8]) {
			return true
		}
	}
	return false
}

// appendRecord renders the wire form of one record.
func appendRecord(buf []byte, seq uint64, payload []byte) []byte {
	var hdr [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	crc := crc32.Checksum(hdr[8:16], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// newSegmentLocked seals nothing and starts a fresh active segment
// named after nextSeq (callers holding records to flush seal first).
// The directory is fsynced so the new file itself survives a crash.
func (l *Log) newSegmentLocked() error {
	seg := &segment{
		name:    segName(l.nextSeq),
		ordinal: l.nextSeq,
	}
	seg.fullPath = filepath.Join(l.dir, seg.name)
	f, err := os.OpenFile(seg.fullPath, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var hdr [SegmentHeaderSize]byte
	copy(hdr[0:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(hdr[0:12], castagnoli))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	seg.size = SegmentHeaderSize
	l.segs = append(l.segs, seg)
	l.f = f
	return nil
}

// rotateLocked seals the active segment (fsync regardless of policy —
// a sealed segment is immutable and must be durable) and starts a
// fresh one.
func (l *Log) rotateLocked() error {
	if err := fault.Inject(fault.WALRotate); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.f = nil
	return l.newSegmentLocked()
}

// Append assigns the next sequence number to payload, writes the
// record to the active segment, applies the sync policy, and returns
// the sequence. The payload is not retained. After a failed append the
// log is broken — the torn bytes it may have left make further appends
// unsafe — and every later call returns the same error; recovery is
// reopening the directory (which truncates the tear away).
func (l *Log) Append(payload []byte) (uint64, error) {
	if int64(len(payload)) > MaxPayloadBytes {
		return 0, fmt.Errorf("wal: payload is %d bytes, the maximum is %d", len(payload), MaxPayloadBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return 0, fmt.Errorf("wal: log is broken by an earlier append failure: %w", l.broken)
	}
	tail := l.segs[len(l.segs)-1]
	if tail.last > 0 && tail.size >= l.opt.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.broken = err
			return 0, err
		}
		tail = l.segs[len(l.segs)-1]
	}
	seq := l.nextSeq
	rec := appendRecord(make([]byte, 0, recordHeaderSize+len(payload)), seq, payload)
	// The record header and payload go out in two writes with the fault
	// harness's mid-append point between them: a fault build can model a
	// crash that tears the record in half, which is exactly the artifact
	// Open's tail truncation must absorb. Production builds see two
	// sequential writes to the same fd — the kernel coalesces them.
	if _, err := l.f.Write(rec[:recordHeaderSize]); err != nil {
		l.broken = err
		return 0, err
	}
	if err := fault.Inject(fault.WALAppend); err != nil {
		l.broken = err
		return 0, err
	}
	if _, err := l.f.Write(rec[recordHeaderSize:]); err != nil {
		l.broken = err
		return 0, err
	}
	tail.size += int64(len(rec))
	if tail.first == 0 {
		tail.first = seq
	}
	tail.last = seq
	l.nextSeq = seq + 1
	l.appends++
	l.bytes += int64(len(rec))
	if err := l.syncPolicyLocked(); err != nil {
		l.broken = err
		return 0, err
	}
	return seq, nil
}

// syncPolicyLocked applies the configured fsync policy after a write.
func (l *Log) syncPolicyLocked() error {
	switch l.opt.Sync {
	case SyncAlways:
	case SyncInterval:
		if time.Since(l.lastSync) < l.opt.SyncEvery {
			return nil
		}
	case SyncNone:
		return nil
	}
	if err := fault.Inject(fault.WALSync); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.lastSync = time.Now()
	return nil
}

// LastSeq returns the sequence of the most recently appended record (0
// for an empty log).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// EnsureNextSeq raises the next assigned sequence to at least seq,
// asserting that every sequence below seq is durably covered by the
// caller's checkpoint. The service calls it after loading a checkpoint
// whose sequence outruns the log (a WAL directory restored from an
// older backup than the snapshot): without the bump, new appends would
// reuse covered sequence numbers and replay would silently skip them.
//
// When the log still holds records, appending seq right after them
// would write a sequence gap mid-stream — which the next Open rejects
// as corruption — so the log instead rotates to a fresh segment
// starting at seq and removes the sealed segments, all of whose
// records the checkpoint covers, exactly as TruncateTo(seq-1) would.
func (l *Log) EnsureNextSeq(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nextSeq >= seq {
		return nil
	}
	l.nextSeq = seq
	if len(l.segs) == 1 && l.segs[0].last == 0 {
		// Empty log: the next append simply starts at seq. The first
		// record of the first segment may carry any sequence, so the
		// scan accepts the result without a rotation.
		return nil
	}
	if err := l.rotateLocked(); err != nil {
		l.broken = err
		return err
	}
	if err := l.truncateLocked(seq - 1); err != nil {
		l.broken = err
		return err
	}
	return nil
}

// Stats reports the lifetime append count and byte volume of this
// process plus the current segment count.
func (l *Log) Stats() (appends, bytes int64, segments int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends, l.bytes, len(l.segs)
}

// TruncateTo removes every sealed segment whose records are all
// covered by seq (their last sequence <= seq). The active segment is
// never removed, so the log always retains its append position; a
// checkpoint that covers the whole log therefore leaves exactly one
// file behind. The directory is fsynced after the removals.
func (l *Log) TruncateTo(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncateLocked(seq)
}

func (l *Log) truncateLocked(seq uint64) error {
	kept := l.segs[:0]
	removed := false
	for i, seg := range l.segs {
		final := i == len(l.segs)-1
		if !final && (seg.last == 0 || seg.last <= seq) {
			if err := os.Remove(seg.fullPath); err != nil {
				// Keep the summary consistent with the directory: everything
				// not yet removed stays in the list.
				kept = append(kept, l.segs[i:]...)
				l.segs = kept
				return err
			}
			removed = true
			continue
		}
		kept = append(kept, seg)
	}
	l.segs = kept
	if !removed {
		return nil
	}
	return syncDir(l.dir)
}

// Close syncs and closes the active segment. The log must not be used
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// syncDir fsyncs a directory so renames/creates/removes in it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
