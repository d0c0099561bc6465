package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// collect replays every record after from into a slice of copies.
func collect(t *testing.T, l *Log, from uint64) (seqs []uint64, payloads [][]byte) {
	t.Helper()
	err := l.Replay(from, func(seq uint64, p []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs, payloads
}

func payload(i int) []byte {
	return []byte(fmt.Sprintf("batch-%04d-%s", i, string(bytes.Repeat([]byte{byte(i)}, i%32))))
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		seq, err := l.Append(payload(i))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d assigned sequence %d, want %d", i, seq, i+1)
		}
	}
	if got := l.LastSeq(); got != n {
		t.Fatalf("LastSeq = %d, want %d", got, n)
	}
	seqs, payloads := collect(t, l, 0)
	if len(seqs) != n {
		t.Fatalf("replay returned %d records, want %d", len(seqs), n)
	}
	for i := range seqs {
		if seqs[i] != uint64(i+1) || !bytes.Equal(payloads[i], payload(i)) {
			t.Fatalf("record %d diverged: seq=%d", i, seqs[i])
		}
	}
	// Replay from the middle skips the covered prefix exactly.
	seqs, _ = collect(t, l, 25)
	if len(seqs) != n-25 || seqs[0] != 26 {
		t.Fatalf("replay from 25: %d records starting at %v", len(seqs), seqs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := l.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 7 {
		t.Fatalf("reopened LastSeq = %d, want 7", got)
	}
	seq, err := l2.Append(payload(7))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 8 {
		t.Fatalf("append after reopen assigned %d, want 8", seq)
	}
	seqs, _ := collect(t, l2, 0)
	if len(seqs) != 8 {
		t.Fatalf("replay after reopen: %d records, want 8", len(seqs))
	}
}

func TestSegmentRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := l.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, _, segs := l.Stats()
	if segs < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", segs)
	}
	// Everything replays across the segment boundaries.
	seqs, _ := collect(t, l, 0)
	if len(seqs) != n {
		t.Fatalf("replay across segments: %d records, want %d", len(seqs), n)
	}

	// Truncate to the middle: sealed fully-covered segments go away,
	// every record above the watermark survives.
	if err := l.TruncateTo(15); err != nil {
		t.Fatal(err)
	}
	_, _, after := l.Stats()
	if after >= segs {
		t.Fatalf("TruncateTo removed nothing (%d -> %d segments)", segs, after)
	}
	seqs, _ = collect(t, l, 15)
	if len(seqs) != n-15 || seqs[0] != 16 || seqs[len(seqs)-1] != n {
		t.Fatalf("post-truncate replay from 15: %v", seqs)
	}

	// Truncating past the end keeps the active segment (the append
	// position) but removes every sealed one.
	if err := l.TruncateTo(uint64(n)); err != nil {
		t.Fatal(err)
	}
	_, _, final := l.Stats()
	if final != 1 {
		t.Fatalf("full truncation left %d segments, want 1", final)
	}
	if seq, err := l.Append(payload(n)); err != nil || seq != n+1 {
		t.Fatalf("append after full truncation: seq=%d err=%v", seq, err)
	}
	l.Close()

	// A reopen of the truncated log starts mid-sequence and stays
	// consistent.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != n+1 {
		t.Fatalf("reopened truncated log LastSeq = %d, want %d", got, n+1)
	}
}

// TestTornTailRecovered pins the crash contract: cutting bytes off the
// final record leaves a log that reopens cleanly, replays the intact
// prefix, and appends the next record in the torn one's place.
func TestTornTailRecovered(t *testing.T) {
	for _, cut := range []int64{1, 5, recordHeaderSize - 1, recordHeaderSize} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if _, err := l.Append(payload(i)); err != nil {
					t.Fatal(err)
				}
			}
			l.Close()

			seg := filepath.Join(dir, segName(1))
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, fi.Size()-cut); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after torn tail: %v", err)
			}
			defer l2.Close()
			if got := l2.LastSeq(); got != 9 {
				t.Fatalf("LastSeq after tear = %d, want 9 (record 10 torn)", got)
			}
			seqs, _ := collect(t, l2, 0)
			if len(seqs) != 9 {
				t.Fatalf("replay after tear: %d records, want 9", len(seqs))
			}
			// The torn record's sequence is reassigned: the lost batch was
			// never acknowledged, its number belongs to the next append.
			if seq, err := l2.Append(payload(99)); err != nil || seq != 10 {
				t.Fatalf("append after tear: seq=%d err=%v", seq, err)
			}
			seqs, pl := collect(t, l2, 9)
			if len(seqs) != 1 || !bytes.Equal(pl[0], payload(99)) {
				t.Fatalf("replacement record not replayed: %v", seqs)
			}
		})
	}
}

// TestMidFileCorruptionIsTypedError: a flipped byte mid-way through
// the final segment, with intact records still parsing after it, is a
// hole in the middle of acknowledged data — a torn write's damage
// extends to EOF. Open must surface the *FormatError instead of
// silently truncating away the fsync-acknowledged records behind it.
func TestMidFileCorruptionIsTypedError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	off := int64(SegmentHeaderSize)
	for i := 0; i < 10; i++ {
		offsets = append(offsets, off)
		if _, err := l.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
		off += recordHeaderSize + int64(len(payload(i)))
	}
	l.Close()

	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[offsets[6]+recordHeaderSize] ^= 0xff // corrupt record 7's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{})
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("Open over mid-file corruption returned %T, want *FormatError: %v", err, err)
	}
	if fe.Offset != offsets[6] {
		t.Fatalf("FormatError at offset %d, want %d (the damaged record)", fe.Offset, offsets[6])
	}
}

// TestCorruptLastRecordTruncated: the same flipped byte in the *last*
// record leaves no intact data behind it — indistinguishable from a
// torn write, so the log truncates it away and keeps working.
func TestCorruptLastRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	off := int64(SegmentHeaderSize)
	for i := 0; i < 10; i++ {
		if i < 9 {
			off += recordHeaderSize + int64(len(payload(i)))
		}
		if _, err := l.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[off+recordHeaderSize] ^= 0xff // corrupt record 10's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after last-record corruption: %v", err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 9 {
		t.Fatalf("LastSeq after corrupt final record = %d, want 9", got)
	}
	seqs, _ := collect(t, l2, 0)
	if len(seqs) != 9 {
		t.Fatalf("replay after truncation: %d records, want 9", len(seqs))
	}
	if seq, err := l2.Append(payload(99)); err != nil || seq != 10 {
		t.Fatalf("append after truncation: seq=%d err=%v", seq, err)
	}
}

// TestCorruptSealedSegmentIsTypedError: damage in a non-final segment
// is not a torn tail — it is unrecoverable corruption and must refuse
// to open with a *FormatError, never silently skip records.
func TestCorruptSealedSegmentIsTypedError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, _, segs := l.Stats()
	if segs < 2 {
		t.Fatalf("need >= 2 segments, got %d", segs)
	}
	l.Close()

	// Corrupt the first (sealed) segment's first record payload.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[SegmentHeaderSize+recordHeaderSize] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, Options{})
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("Open over a corrupt sealed segment returned %T: %v", err, err)
	}
	if fe.File != segName(1) {
		t.Fatalf("FormatError names %q, want %q", fe.File, segName(1))
	}
}

func TestBadHeaderRejected(t *testing.T) {
	cases := map[string]func(b []byte) []byte{
		"bad magic":       func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version":     func(b []byte) []byte { b[8] ^= 0xff; return b },
		"bad header crc":  func(b []byte) []byte { b[12] ^= 0xff; return b },
		"short header":    func(b []byte) []byte { return b[:SegmentHeaderSize-4] },
		"sequence zero":   nil, // constructed below
		"sequence jump":   nil,
		"oversize length": nil,
	}
	base := func(t *testing.T) []byte {
		dir := t.TempDir()
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := l.Append(payload(i)); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		data, err := os.ReadFile(filepath.Join(dir, segName(1)))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for name, mutate := range cases {
		if mutate == nil {
			continue
		}
		t.Run(name, func(t *testing.T) {
			data := mutate(base(t))
			if _, _, _, err := scanRecords("seg", data, 0); err == nil {
				t.Fatalf("%s accepted", name)
			}
		})
	}
	// Sequence-continuity violations: a CRC-valid record carrying the
	// wrong sequence is corruption, not a torn tail.
	t.Run("sequence jump", func(t *testing.T) {
		rec := appendRecord(nil, 5, []byte("x")) // log starts at 1
		data := append(base(t), rec...)
		if _, _, _, err := scanRecords("seg", data, 0); err == nil {
			t.Fatal("out-of-order sequence accepted")
		}
	})
	t.Run("sequence zero", func(t *testing.T) {
		hdr := base(t)[:SegmentHeaderSize]
		data := append(append([]byte(nil), hdr...), appendRecord(nil, 0, []byte("x"))...)
		if _, _, _, err := scanRecords("seg", data, 0); err == nil {
			t.Fatal("sequence 0 accepted")
		}
	})
	t.Run("oversize length", func(t *testing.T) {
		data := base(t)
		rec := appendRecord(nil, 4, []byte("x"))
		// Inflate the length prefix past the cap; CRC does not matter,
		// the length check runs first.
		rec[0], rec[1], rec[2], rec[3] = 0xff, 0xff, 0xff, 0xff
		data = append(data, rec...)
		_, _, _, err := scanRecords("seg", data, 0)
		if err == nil {
			t.Fatal("oversize length accepted")
		}
	})
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Sync: pol, SyncEvery: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				if _, err := l.Append(payload(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			seqs, _ := collect(t, l2, 0)
			if len(seqs) != 20 {
				t.Fatalf("policy %v: %d records survived, want 20", pol, len(seqs))
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "Interval": SyncInterval, " none ": SyncNone} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("ParseSyncPolicy accepted garbage")
	}
}

func TestEnsureNextSeq(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.EnsureNextSeq(100); err != nil {
		t.Fatal(err)
	}
	seq, err := l.Append(payload(1))
	if err != nil || seq != 100 {
		t.Fatalf("append after EnsureNextSeq(100): seq=%d err=%v", seq, err)
	}
	// Lowering is a no-op.
	if err := l.EnsureNextSeq(5); err != nil {
		t.Fatal(err)
	}
	if seq, _ := l.Append(payload(2)); seq != 101 {
		t.Fatalf("EnsureNextSeq lowered the sequence: %d", seq)
	}
	// Replay filters by the real sequence numbers.
	seqs, _ := collect(t, l, 99)
	if len(seqs) != 2 || seqs[0] != 100 {
		t.Fatalf("replay after seq bump: %v", seqs)
	}
	l.Close()
	// The bumped log reopens cleanly (the empty-log bump writes no gap).
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after seq bump: %v", err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 101 {
		t.Fatalf("reopened LastSeq = %d, want 101", got)
	}
}

// TestEnsureNextSeqGapRotates pins the restored-from-backup scenario:
// the WAL holds records older than the snapshot's checkpoint sequence.
// Bumping past them must not write a sequence gap into the active
// segment (the next Open would reject it as corruption) — the log
// rotates to a fresh segment at the new sequence and drops the sealed
// segments, all of which the checkpoint covers.
func TestEnsureNextSeqGapRotates(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// The snapshot (elsewhere) covers sequence 49; the log tops out at 3.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.EnsureNextSeq(50); err != nil {
		t.Fatal(err)
	}
	seq, err := l2.Append(payload(50))
	if err != nil || seq != 50 {
		t.Fatalf("append after gap bump: seq=%d err=%v", seq, err)
	}
	if _, _, segs := l2.Stats(); segs != 1 {
		t.Fatalf("%d segments after gap bump, want 1 (covered records dropped)", segs)
	}
	l2.Close()

	// The next boot accepts the log: no mid-stream gap was ever written.
	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after gap bump: %v", err)
	}
	defer l3.Close()
	if got := l3.LastSeq(); got != 50 {
		t.Fatalf("LastSeq after gap bump reopen = %d, want 50", got)
	}
	seqs, _ := collect(t, l3, 0)
	if len(seqs) != 1 || seqs[0] != 50 {
		t.Fatalf("replay after gap bump: %v, want just [50]", seqs)
	}
	if seq, err := l3.Append(payload(51)); err != nil || seq != 51 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
}

// TestForeignFilesIgnored: non-segment files in the directory are left
// alone and do not confuse the scan.
func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(payload(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "README.txt")); err != nil {
		t.Fatalf("foreign file disturbed: %v", err)
	}
}
