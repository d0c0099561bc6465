package treeio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"mrcc/internal/ctree"
)

// fuzzSeedSnapshot builds a small valid snapshot for the fuzz corpus.
func fuzzSeedSnapshot() []byte {
	rng := rand.New(rand.NewSource(77))
	ds := layouts["clumped"](rng, 3, 120)
	tr, err := ctree.Build(ds, 4, ctree.BuildOptions{})
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if _, err := Save(&buf, tr, Meta{}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// fuzzSeedFirstTouch is fuzzSeedSnapshot's tree saved with its rows in
// first-touch order (firstTouchSnapshot), a valid snapshot that a
// release before the canonical order could have written.
func fuzzSeedFirstTouch() []byte {
	rng := rand.New(rand.NewSource(77))
	ds := layouts["clumped"](rng, 3, 120)
	tr, err := ctree.Build(ds, 4, ctree.BuildOptions{})
	if err != nil {
		panic(err)
	}
	return firstTouchSnapshot(tr, ds.Points)
}

// fuzzSeedCheckpoint is fuzzSeedSnapshot with a checkpoint trailer.
func fuzzSeedCheckpoint(seq uint64) []byte {
	rng := rand.New(rand.NewSource(77))
	ds := layouts["clumped"](rng, 3, 120)
	tr, err := ctree.Build(ds, 4, ctree.BuildOptions{})
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if _, err := Save(&buf, tr, Meta{Seq: seq, HasSeq: true}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// fixChecksums recomputes the column CRC directory and the header CRC
// over a mutated snapshot, so corpus entries that corrupt the PAYLOAD
// (out-of-range refs, impossible counts) get past the checksum layer
// and exercise the structural revalidation.
func fixChecksums(snap []byte) []byte {
	off := uint64(HeaderSize)
	for i := 0; i < numColumns; i++ {
		dir := snap[48+i*24:]
		size := binary.LittleEndian.Uint64(dir[8:16])
		col := snap[off : off+size]
		binary.LittleEndian.PutUint32(dir[16:20], crc32.Checksum(col, castagnoli))
		off += size
	}
	binary.LittleEndian.PutUint32(snap[44:48], 0)
	binary.LittleEndian.PutUint32(snap[44:48], crc32.Checksum(snap[:HeaderSize], castagnoli))
	return snap
}

// FuzzLoadTree throws arbitrary bytes at the snapshot loader. The
// contract under fuzzing: Load either returns a tree or a typed
// *FormatError — never a panic, never an untyped error, never a tree
// from corrupt bytes. An accepted file whose rows are in canonical
// order (their paths ascend) re-saves byte for byte; any other
// accepted file, such as a first-touch snapshot an older release
// saved, re-saves as the canonical snapshot of the same cells, which
// loads Equal and re-saves byte for byte. Either way the tree takes
// one valid InsertBatch and still passes ctree.NewFromColumns.
func FuzzLoadTree(f *testing.F) {
	valid := fuzzSeedSnapshot()
	f.Add(append([]byte(nil), valid...))
	// Truncated header.
	f.Add(append([]byte(nil), valid[:100]...))
	// Truncated payload.
	f.Add(append([]byte(nil), valid[:HeaderSize+37]...))
	// Flipped version byte.
	badVersion := append([]byte(nil), valid...)
	badVersion[8] ^= 0xff
	f.Add(badVersion)
	// Bad column checksum (payload flip, directory left stale).
	badSum := append([]byte(nil), valid...)
	badSum[HeaderSize+8] ^= 0x01
	f.Add(badSum)
	// Column-length mismatch: directory size of column n inflated (header
	// CRC fixed up so the size check itself is reached).
	badLen := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(badLen[48+1*24+8:], uint64(len(valid)))
	binary.LittleEndian.PutUint32(badLen[44:48], 0)
	binary.LittleEndian.PutUint32(badLen[44:48], crc32.Checksum(badLen[:HeaderSize], castagnoli))
	f.Add(badLen)
	// Out-of-range parent ref in row 1, checksums fixed up so the
	// structural revalidation is what must refuse it.
	badRef := append([]byte(nil), valid...)
	rows := binary.LittleEndian.Uint64(badRef[24:32])
	parentOff := binary.LittleEndian.Uint64(badRef[48+4*24:])
	binary.LittleEndian.PutUint32(badRef[parentOff+4:], uint32(rows+100))
	f.Add(fixChecksums(badRef))
	// Forward parent ref (row 1 pointing at a later row).
	fwdRef := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(fwdRef[parentOff+4:], 2)
	f.Add(fixChecksums(fwdRef))
	// Zero point count in row 1 (stored cells always count >= 1).
	zeroN := append([]byte(nil), valid...)
	nOff := binary.LittleEndian.Uint64(zeroN[48+1*24:])
	binary.LittleEndian.PutUint32(zeroN[nOff+4:], 0)
	f.Add(fixChecksums(zeroN))
	// Non-boolean used byte.
	badBool := append([]byte(nil), valid...)
	usedOff := binary.LittleEndian.Uint64(badBool[48+2*24:])
	badBool[usedOff+1] = 7
	f.Add(fixChecksums(badBool))
	// Checkpoint-trailer'd snapshot, plus trailer damage: flipped trailer
	// CRC, flipped sequence byte, non-zero padding, truncated trailer.
	ckpt := fuzzSeedCheckpoint(42)
	f.Add(append([]byte(nil), ckpt...))
	badTrCRC := append([]byte(nil), ckpt...)
	badTrCRC[len(badTrCRC)-7] ^= 0x01
	f.Add(badTrCRC)
	badTrSeq := append([]byte(nil), ckpt...)
	badTrSeq[len(badTrSeq)-16] ^= 0x01
	f.Add(badTrSeq)
	badTrPad := append([]byte(nil), ckpt...)
	badTrPad[len(badTrPad)-1] = 0xAA
	f.Add(badTrPad)
	f.Add(append([]byte(nil), ckpt[:len(ckpt)-TrailerSize]...))
	// Empty and tiny inputs.
	f.Add([]byte{})
	f.Add([]byte(Magic))
	// A valid snapshot whose rows are in first-touch order.
	firstTouch := fuzzSeedFirstTouch()
	if bytes.Equal(firstTouch, valid) {
		f.Fatal("the first-touch seed is in canonical order")
	}
	f.Add(firstTouch)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, m, err := Load(bytes.NewReader(data), int64(len(data)), LoadOptions{})
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("Load returned an untyped error %T: %v", err, err)
			}
			return
		}
		// Accepted: re-save with the trailer it carried (checkpoint'd or
		// plain). A file in canonical order must come back byte for byte.
		var buf bytes.Buffer
		if _, err = Save(&buf, tr, m); err != nil {
			t.Fatalf("re-saving an accepted tree: %v", err)
		}
		_, rows, _, err := readColumns(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("the columns of an accepted snapshot: %v", err)
		}
		paths := rowPaths(rows)
		inOrder := true
		for r := 2; r < len(paths) && inOrder; r++ {
			inOrder = paths[r-1].Compare(paths[r]) < 0
		}
		if inOrder && !bytes.Equal(buf.Bytes(), data) {
			t.Fatal("accepted snapshot in canonical order: re-save produced different bytes")
		}
		if !inOrder {
			// Any other order: the re-save holds every row of the file at its
			// path, and nothing else, and is itself a canonical snapshot.
			if int(tr.CellCount())+1 != rows.Rows() {
				t.Fatalf("the re-save holds %d cells, the file %d", tr.CellCount(), rows.Rows()-1)
			}
			for r := 1; r < rows.Rows(); r++ {
				c := tr.CellAt(paths[r])
				if c == ctree.NilRef || tr.N(c) != rows.N[r] || tr.Used(c) != rows.Used[r] ||
					!slices.Equal(tr.PRow(c), rows.P[r*tr.D:(r+1)*tr.D]) {
					t.Fatalf("the re-save does not hold the file's row %d at its path %v", r, paths[r])
				}
			}
			again, m2, err := Load(bytes.NewReader(buf.Bytes()), int64(buf.Len()), LoadOptions{})
			if err != nil || m2 != m || !ctree.Equal(again, tr) {
				t.Fatalf("the re-save of an accepted snapshot does not load Equal (%v)", err)
			}
			var buf2 bytes.Buffer
			if _, err := Save(&buf2, again, m2); err != nil || !bytes.Equal(buf2.Bytes(), buf.Bytes()) {
				t.Fatalf("the re-save of an accepted snapshot does not re-save byte for byte (%v)", err)
			}
		}
		// The accepted tree takes one valid batch, a point drawn from the
		// input's bytes, which links it on its first count; its columns
		// must still pass the full revalidation.
		if tr.Eta == ctree.MaxPoints {
			return
		}
		p := make([]float64, tr.D)
		for j := range p {
			p[j] = float64(data[j%len(data)]) / 256
		}
		if err := tr.InsertBatch([][]float64{p}); err != nil {
			t.Fatalf("InsertBatch of a valid point into an accepted tree: %v", err)
		}
		if _, err := ctree.NewFromColumns(tr.D, tr.H, tr.Eta, tr.Columns()); err != nil {
			t.Fatalf("after one InsertBatch the accepted tree fails revalidation: %v", err)
		}
	})
}

// rowPaths returns each row's root path (none for the root sentinel),
// from columns whose parents precede their children.
func rowPaths(c ctree.Columns) []ctree.Path {
	paths := make([]ctree.Path, c.Rows())
	for r := 1; r < c.Rows(); r++ {
		paths[r] = append(paths[c.Parent[r]].Clone(), c.Loc[r])
	}
	return paths
}

// TestFuzzSeedsRejectTyped runs the corpus mutations through Load
// directly (the fuzz engine only executes seeds under -fuzz), pinning
// that each one is refused with a *FormatError and that the pristine
// seed still loads.
func TestFuzzSeedsRejectTyped(t *testing.T) {
	valid := fuzzSeedSnapshot()
	if _, _, err := Load(bytes.NewReader(valid), int64(len(valid)), LoadOptions{}); err != nil {
		t.Fatalf("pristine seed refused: %v", err)
	}
	mutate := func(name string, fn func(b []byte) []byte) {
		b := fn(append([]byte(nil), valid...))
		_, _, err := Load(bytes.NewReader(b), int64(len(b)), LoadOptions{})
		if err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
			return
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: untyped error %T: %v", name, err, err)
		}
	}
	mutate("truncated header", func(b []byte) []byte { return b[:100] })
	mutate("truncated payload", func(b []byte) []byte { return b[:HeaderSize+37] })
	mutate("flipped version", func(b []byte) []byte { b[8] ^= 0xff; return b })
	mutate("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	mutate("bad column checksum", func(b []byte) []byte { b[HeaderSize+8] ^= 1; return b })
	mutate("bad header checksum", func(b []byte) []byte { b[16] ^= 1; return b })
	mutate("trailing garbage", func(b []byte) []byte { return append(b, 0xAA) })
	mutate("out-of-range parent", func(b []byte) []byte {
		off := binary.LittleEndian.Uint64(b[48+4*24:])
		binary.LittleEndian.PutUint32(b[off+4:], 1<<30)
		return fixChecksums(b)
	})
	mutate("zero cell count", func(b []byte) []byte {
		off := binary.LittleEndian.Uint64(b[48+1*24:])
		binary.LittleEndian.PutUint32(b[off+4:], 0)
		return fixChecksums(b)
	})
	mutate("non-boolean used byte", func(b []byte) []byte {
		off := binary.LittleEndian.Uint64(b[48+2*24:])
		b[off+1] = 7
		return fixChecksums(b)
	})
	mutate("half-space counter above N", func(b []byte) []byte {
		off := binary.LittleEndian.Uint64(b[48+5*24:])
		binary.LittleEndian.PutUint32(b[off+3*4:], 1<<29)
		return fixChecksums(b)
	})

	ckpt := fuzzSeedCheckpoint(42)
	if _, m, err := Load(bytes.NewReader(ckpt), int64(len(ckpt)), LoadOptions{}); err != nil || m.Seq != 42 || !m.HasSeq {
		t.Fatalf("pristine checkpoint seed: seq=%d hasSeq=%v err=%v, want 42/true/nil", m.Seq, m.HasSeq, err)
	}
	mutateCkpt := func(name string, fn func(b []byte) []byte) {
		b := fn(append([]byte(nil), ckpt...))
		_, _, err := Load(bytes.NewReader(b), int64(len(b)), LoadOptions{})
		if err == nil {
			t.Errorf("%s: corrupt checkpoint snapshot accepted", name)
			return
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: untyped error %T: %v", name, err, err)
		}
	}
	mutateCkpt("flipped trailer checksum", func(b []byte) []byte { b[len(b)-7] ^= 1; return b })
	mutateCkpt("flipped trailer sequence", func(b []byte) []byte { b[len(b)-16] ^= 1; return b })
	mutateCkpt("non-zero trailer padding", func(b []byte) []byte { b[len(b)-1] = 0xAA; return b })
	mutateCkpt("truncated trailer", func(b []byte) []byte { return b[:len(b)-TrailerSize] })
	mutateCkpt("unknown flag bit", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[12:16], FlagCheckpointSeq|0x2)
		binary.LittleEndian.PutUint32(b[44:48], 0)
		binary.LittleEndian.PutUint32(b[44:48], crc32.Checksum(b[:HeaderSize], castagnoli))
		return b
	})
}
