// Package treeio defines the versioned binary snapshot format for
// arena-backed Counting-trees and implements atomic save and strictly
// validated load: Save and Load over a writer or reader, SaveFile and
// LoadFile over a path, with a Meta value carrying the optional
// checkpoint trailer both ways. SaveStream and LoadStream frame the
// same bytes for a stream that carries no length.
//
// A snapshot is a fixed 192-byte little-endian header followed by the
// six raw arena state columns, in this order and with no padding
// between them:
//
//	offset  size      field
//	     0     8      magic "MRCCTREE"
//	     8     4      format version (currently 1)
//	    12     4      flags (must be 0 in version 1)
//	    16     4      d   — dataset dimensionality
//	    20     4      H   — number of resolutions
//	    24     8      rows — stored cells + 1 (row 0 is the root sentinel)
//	    32     8      eta  — points counted into the tree
//	    40     4      column count (must be 6 in version 1)
//	    44     4      CRC-32C of the header with this field zeroed
//	    48   6×24     column directory: {offset u64, size u64, CRC-32C u32, pad u32}
//	   192     rows×8     loc    column (uint64)
//	     +     rows×4     n      column (int32)
//	     +     rows×1     used   column (bool, one byte each, 0 or 1)
//	     +     rows×1     level  column (uint8)
//	     +     rows×4     parent column (int32 Ref)
//	     +     rows×d×4   p      column (int32, stride d)
//
// Multi-byte values are little-endian. Save writes each column with a
// single Write straight from the arena slab; Load reads each column
// with a single io.ReadFull straight into a freshly allocated arena
// column — there is no per-cell encode or decode. (On a big-endian
// host both fall back to a per-element byte shuffle; the file format
// is identical.)
//
// Load trusts nothing: the declared sizes must reproduce the file
// length exactly before any column memory is allocated (a hostile
// header cannot force a huge allocation), every column is checksummed,
// the used column may hold only 0/1 bytes, and the assembled columns
// pass ctree.NewFromColumns's full structural revalidation. Every
// violation surfaces as a typed *FormatError; a corrupt or malicious
// file can produce an error, never a silently wrong tree.
package treeio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"mrcc/internal/ctree"
)

// Magic is the 8-byte tag opening every snapshot.
const Magic = "MRCCTREE"

// Version is the snapshot format version this package writes. Load
// accepts exactly this version: any change to the layout must bump it.
const Version = 1

// HeaderSize is the fixed size of the snapshot header in bytes.
const HeaderSize = 192

// FlagCheckpointSeq marks a snapshot that carries a checkpoint trailer
// after its last column: 16 bytes holding the write-ahead-log sequence
// the snapshot covers (uint64 LE), a CRC-32C of those 8 bytes, and 4
// zero pad bytes. The streaming service writes it so recovery knows
// exactly which WAL records the snapshot already contains — replay
// starts one past the trailer's sequence, never double-applying a
// batch. Snapshots without the flag are the plain format of PR 6,
// byte for byte.
const FlagCheckpointSeq = 0x1

// TrailerSize is the checkpoint trailer's size in bytes.
const TrailerSize = 16

// numColumns is the column count of format version 1.
const numColumns = 6

// columnNames names the columns in file order, for error messages.
var columnNames = [numColumns]string{"loc", "n", "used", "level", "parent", "p"}

// castagnoli is the CRC-32C table shared by the header and column
// checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FormatError reports a snapshot that could not be decoded: bad magic,
// unsupported version, inconsistent geometry, checksum mismatch,
// truncation, or columns that fail the Counting-tree's structural
// revalidation. Section names the part of the file at fault.
type FormatError struct {
	// Section is "header", "column <name>", or "tree" (structural
	// revalidation of the decoded columns).
	Section string
	// Msg describes the violation.
	Msg string
	// Err is the underlying cause, when one exists (e.g. the ctree
	// validation error, or io.ErrUnexpectedEOF).
	Err error
}

// Error implements error.
func (e *FormatError) Error() string {
	if e.Err != nil && e.Msg == "" {
		return fmt.Sprintf("treeio: %s: %v", e.Section, e.Err)
	}
	return fmt.Sprintf("treeio: %s: %s", e.Section, e.Msg)
}

// Unwrap returns the underlying cause, if any.
func (e *FormatError) Unwrap() error { return e.Err }

func headerErr(format string, args ...any) *FormatError {
	return &FormatError{Section: "header", Msg: fmt.Sprintf(format, args...)}
}

// layout is the decoded header: tree geometry plus the derived column
// byte sizes.
type layout struct {
	d, h    int
	rows    int
	eta     int
	hasSeq  bool // FlagCheckpointSeq: a checkpoint trailer follows the columns
	colSize [numColumns]uint64
	colCRC  [numColumns]uint32
}

// columnSizes fills the per-column byte sizes from rows and d.
func (l *layout) columnSizes() {
	r := uint64(l.rows)
	l.colSize = [numColumns]uint64{r * 8, r * 4, r, r, r * 4, r * uint64(l.d) * 4}
}

// totalSize is the exact snapshot size the layout dictates.
func (l *layout) totalSize() uint64 {
	total := uint64(HeaderSize)
	for _, s := range l.colSize {
		total += s
	}
	if l.hasSeq {
		total += TrailerSize
	}
	return total
}

// Meta is a snapshot's checkpoint trailer (FlagCheckpointSeq): HasSeq
// declares that every write-ahead-log record with sequence <= Seq is
// already folded into the tree, so recovery replays only the records
// past Seq. The zero value is a plain snapshot, with no trailer.
type Meta struct {
	Seq    uint64
	HasSeq bool
}

// Save writes the tree's snapshot to w, with the checkpoint trailer m
// declares, and returns the number of bytes written: one buffered
// header write, one Write per arena column, then the trailer. The tree
// must not be mutated concurrently.
func Save(w io.Writer, t *ctree.Tree, m Meta) (int64, error) {
	if t == nil {
		return 0, fmt.Errorf("treeio: nil tree")
	}
	c := t.Columns()
	rows := c.Rows()
	l := layout{d: t.D, h: t.H, rows: rows, eta: t.Eta, hasSeq: m.HasSeq}
	l.columnSizes()

	cols := [numColumns][]byte{
		u64Bytes(c.Loc), i32Bytes(c.N), boolBytes(c.Used),
		c.Level, refBytes(c.Parent), i32Bytes(c.P),
	}
	flags := uint32(0)
	if m.HasSeq {
		flags = FlagCheckpointSeq
	}
	var hdr [HeaderSize]byte
	copy(hdr[0:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint32(hdr[12:16], flags)
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(t.D))
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(t.H))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(rows))
	binary.LittleEndian.PutUint64(hdr[32:40], uint64(t.Eta))
	binary.LittleEndian.PutUint32(hdr[40:44], numColumns)
	off := uint64(HeaderSize)
	for i, col := range cols {
		dir := hdr[48+i*24:]
		binary.LittleEndian.PutUint64(dir[0:8], off)
		binary.LittleEndian.PutUint64(dir[8:16], uint64(len(col)))
		binary.LittleEndian.PutUint32(dir[16:20], crc32.Checksum(col, castagnoli))
		off += uint64(len(col))
	}
	binary.LittleEndian.PutUint32(hdr[44:48], crc32.Checksum(hdr[:], castagnoli))

	written := int64(0)
	n, err := w.Write(hdr[:])
	written += int64(n)
	if err != nil {
		return written, err
	}
	for _, col := range cols {
		n, err := w.Write(col)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	if m.HasSeq {
		n, err := w.Write(encodeTrailer(m.Seq))
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// encodeTrailer renders the 16-byte checkpoint trailer for seq.
func encodeTrailer(seq uint64) []byte {
	var tr [TrailerSize]byte
	binary.LittleEndian.PutUint64(tr[0:8], seq)
	binary.LittleEndian.PutUint32(tr[8:12], crc32.Checksum(tr[0:8], castagnoli))
	return tr[:]
}

// Test seams for the injected-failure suite (savefile_test.go): the
// durability contract below is only provable by making each fallible
// step fail on demand.
var (
	syncFile   = (*os.File).Sync
	renameFile = os.Rename
)

// SaveFile writes the tree's snapshot to path atomically and durably:
// the bytes go to a temporary file in the same directory, the file is
// fsynced, one rename replaces path, and the containing directory is
// fsynced so the rename itself survives a crash — a power cut never
// leaves a truncated snapshot under the target name, and once SaveFile
// returns the new snapshot is the one a reboot finds. Every failure
// path removes the temporary file, so a snapshot directory rotated
// continuously (the streaming service saves on a cadence) never
// accumulates stranded *.tmp files.
func SaveFile(path string, t *ctree.Tree, m Meta) (written int64, err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			// After a successful rename tmp no longer exists and this
			// Remove is a harmless ENOENT (the directory-sync failure
			// path); on every earlier failure it reclaims the temp file.
			os.Remove(tmp)
			written = 0
		}
	}()
	written, err = Save(f, t, m)
	if err == nil {
		err = syncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if err = renameFile(tmp, path); err != nil {
		return 0, err
	}
	return written, syncDir(dir)
}

// SaveFileCheckpoint is SaveFile with a trailer covering seq.
// perfbench is its only caller; a benchmark change moves perfbench to
// SaveFile and removes it.
func SaveFileCheckpoint(path string, t *ctree.Tree, seq uint64) (int64, error) {
	return SaveFile(path, t, Meta{Seq: seq, HasSeq: true})
}

// syncDir fsyncs a directory, making a just-performed rename in it
// durable. An unsyncable directory is reported — the caller promised
// durability, not just atomicity.
func syncDir(dir string) (err error) {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = syncFile(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadOptions tunes how a snapshot is decoded.
type LoadOptions struct {
	// TrustChecksums skips the full structural revalidation of the
	// decoded columns when every per-column CRC-32C matches: the
	// columns are assembled with ctree.NewFromColumnsTrusted, which
	// performs only the memory-safety checks (linkage bounds, level
	// chains, position masks) and not the O(cells·d) cross-row count
	// and half-space verification that dominates load time. Correct
	// for snapshots this system wrote — Save serializes only valid
	// trees, and the checksums prove the bytes are the ones it wrote —
	// and for any peer trusted to do the same (a shard worker
	// streaming its build result). Leave it false for snapshots from
	// untrusted sources: trusted loading of a maliciously crafted,
	// correctly-checksummed file can produce a tree with wrong counts,
	// though never out-of-bounds access.
	TrustChecksums bool
}

// LoadFile loads a snapshot from path (see Load for the validation
// contract).
func LoadFile(path string, opt LoadOptions) (*ctree.Tree, Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Meta{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, Meta{}, err
	}
	return Load(f, fi.Size(), opt)
}

// LoadFileCheckpointOptions is LoadFile with the trailer split into
// its sequence and flag. perfbench is its only caller; a benchmark
// change moves perfbench to LoadFile and removes it.
func LoadFileCheckpointOptions(path string, opt LoadOptions) (*ctree.Tree, uint64, bool, error) {
	t, m, err := LoadFile(path, opt)
	return t, m.Seq, m.HasSeq, err
}

// Load reads one snapshot of exactly size bytes from r and assembles
// the tree, returning the checkpoint trailer the snapshot carries (the
// zero Meta when it has none; callers holding bytes pass a
// bytes.Reader). The header's declared geometry must reproduce size
// exactly before any column memory is allocated, every column checksum
// must match, the trailer's too, and the columns must pass the
// Counting-tree's structural revalidation (or, with
// LoadOptions.TrustChecksums, its memory-safety checks); any violation
// returns a *FormatError, never a silently wrong tree or recovery
// point. The loaded tree is written-once and in canonical order
// (ctree's arena.go): its columns hold exactly the snapshot's rows, so
// its MemoryBytes equals that of a build of the same cells, and rows
// that a release before the canonical order saved in another order are
// rewritten in it once, so such a snapshot re-saves as a build's.
func Load(r io.Reader, size int64, opt LoadOptions) (*ctree.Tree, Meta, error) {
	l, c, m, err := readColumns(r, size)
	if err != nil {
		return nil, Meta{}, err
	}
	assemble := ctree.NewFromColumns
	if opt.TrustChecksums {
		assemble = ctree.NewFromColumnsTrusted
	}
	t, err := assemble(l.d, l.h, l.eta, c)
	if err != nil {
		return nil, Meta{}, &FormatError{Section: "tree", Msg: err.Error(), Err: err}
	}
	return t, m, nil
}

// readColumns reads one snapshot of exactly size bytes from r and
// returns its layout, its columns in the file's row order and its
// trailer, after every check of Load's but the tree's own.
func readColumns(r io.Reader, size int64) (*layout, ctree.Columns, Meta, error) {
	if size < HeaderSize {
		return nil, ctree.Columns{}, Meta{}, headerErr("%d bytes is shorter than the %d-byte header", size, HeaderSize)
	}
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, ctree.Columns{}, Meta{}, readErr("header", err)
	}
	l, err := parseHeader(hdr, uint64(size))
	if err != nil {
		return nil, ctree.Columns{}, Meta{}, err
	}

	// Geometry is proven consistent with the byte count: allocate the
	// arena columns at exactly the snapshot's rows and read each column
	// straight into its slab, which the tree then takes over.
	c := ctree.Columns{
		Loc:    make([]uint64, l.rows),
		N:      make([]int32, l.rows),
		Used:   make([]bool, l.rows),
		Level:  make([]uint8, l.rows),
		Parent: make([]ctree.Ref, l.rows),
		P:      make([]int32, l.rows*l.d),
	}
	views := [numColumns][]byte{
		u64Bytes(c.Loc), i32Bytes(c.N), boolBytes(c.Used),
		c.Level, refBytes(c.Parent), i32Bytes(c.P),
	}
	for i, view := range views {
		if _, err := io.ReadFull(r, view); err != nil {
			return nil, ctree.Columns{}, Meta{}, readErr("column "+columnNames[i], err)
		}
		if sum := crc32.Checksum(view, castagnoli); sum != l.colCRC[i] {
			return nil, ctree.Columns{}, Meta{}, &FormatError{
				Section: "column " + columnNames[i],
				Msg:     fmt.Sprintf("checksum %#08x does not match the header's %#08x", sum, l.colCRC[i]),
			}
		}
	}
	// The used column is reinterpreted as []bool: only 0/1 bytes decode
	// to well-formed Go bools (and the checksum pass above has already
	// touched the bytes, so this scan is cache-warm).
	for i, b := range views[2] {
		if b > 1 {
			return nil, ctree.Columns{}, Meta{}, &FormatError{Section: "column used", Msg: fmt.Sprintf("row %d holds byte %#02x, want 0 or 1", i, b)}
		}
	}
	decodeInPlace(c, views)

	var m Meta
	if l.hasSeq {
		var tr [TrailerSize]byte
		if _, err := io.ReadFull(r, tr[:]); err != nil {
			return nil, ctree.Columns{}, Meta{}, readErr("trailer", err)
		}
		declared := binary.LittleEndian.Uint32(tr[8:12])
		if sum := crc32.Checksum(tr[0:8], castagnoli); sum != declared {
			return nil, ctree.Columns{}, Meta{}, &FormatError{
				Section: "trailer",
				Msg:     fmt.Sprintf("checksum %#08x does not match the declared %#08x", sum, declared),
			}
		}
		if p := binary.LittleEndian.Uint32(tr[12:16]); p != 0 {
			return nil, ctree.Columns{}, Meta{}, &FormatError{Section: "trailer", Msg: fmt.Sprintf("padding %#x, want 0", p)}
		}
		m = Meta{Seq: binary.LittleEndian.Uint64(tr[0:8]), HasSeq: true}
	}
	return l, c, m, nil
}

// parseHeader validates the fixed header against the actual snapshot
// size and returns the decoded layout. Nothing is allocated until the
// declared geometry reproduces the byte count exactly.
func parseHeader(hdr [HeaderSize]byte, size uint64) (*layout, error) {
	if string(hdr[0:8]) != Magic {
		return nil, headerErr("bad magic %q", hdr[0:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != Version {
		return nil, headerErr("unsupported format version %d (this build reads version %d)", v, Version)
	}
	flags := binary.LittleEndian.Uint32(hdr[12:16])
	if flags&^uint32(FlagCheckpointSeq) != 0 {
		return nil, headerErr("unknown flags %#x", flags)
	}
	declared := binary.LittleEndian.Uint32(hdr[44:48])
	var scratch [HeaderSize]byte
	copy(scratch[:], hdr[:])
	binary.LittleEndian.PutUint32(scratch[44:48], 0)
	if sum := crc32.Checksum(scratch[:], castagnoli); sum != declared {
		return nil, headerErr("header checksum %#08x does not match the declared %#08x", sum, declared)
	}
	d := binary.LittleEndian.Uint32(hdr[16:20])
	h := binary.LittleEndian.Uint32(hdr[20:24])
	rows := binary.LittleEndian.Uint64(hdr[24:32])
	eta := binary.LittleEndian.Uint64(hdr[32:40])
	if d < 1 || d > ctree.MaxDims {
		return nil, headerErr("dimensionality %d outside [1, %d]", d, ctree.MaxDims)
	}
	if h < ctree.MinLevels || h > ctree.MaxLevels {
		return nil, headerErr("H %d outside [%d, %d]", h, ctree.MinLevels, ctree.MaxLevels)
	}
	if rows < 1 || rows > math.MaxInt32+1 {
		return nil, headerErr("row count %d outside [1, %d]", rows, uint64(math.MaxInt32)+1)
	}
	if eta < 1 || eta > ctree.MaxPoints {
		return nil, headerErr("point count %d outside [1, %d]", eta, ctree.MaxPoints)
	}
	if nc := binary.LittleEndian.Uint32(hdr[40:44]); nc != numColumns {
		return nil, headerErr("column count %d, want %d", nc, numColumns)
	}
	l := &layout{d: int(d), h: int(h), rows: int(rows), eta: int(eta), hasSeq: flags&FlagCheckpointSeq != 0}
	l.columnSizes()
	if total := l.totalSize(); total != size {
		return nil, headerErr("geometry (d=%d, rows=%d) dictates %d bytes, snapshot holds %d", d, rows, total, size)
	}
	off := uint64(HeaderSize)
	for i := 0; i < numColumns; i++ {
		dir := hdr[48+i*24:]
		if o := binary.LittleEndian.Uint64(dir[0:8]); o != off {
			return nil, headerErr("column %s offset %d, geometry dictates %d", columnNames[i], o, off)
		}
		if s := binary.LittleEndian.Uint64(dir[8:16]); s != l.colSize[i] {
			return nil, headerErr("column %s size %d, geometry dictates %d", columnNames[i], s, l.colSize[i])
		}
		l.colCRC[i] = binary.LittleEndian.Uint32(dir[16:20])
		if p := binary.LittleEndian.Uint32(dir[20:24]); p != 0 {
			return nil, headerErr("column %s directory padding %#x, want 0", columnNames[i], p)
		}
		off += l.colSize[i]
	}
	return l, nil
}

// readErr wraps a short read as a FormatError (a snapshot that ends
// before its declared geometry is a format violation, not an I/O
// environment failure) and passes other reader errors through.
func readErr(section string, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return &FormatError{Section: section, Msg: "snapshot truncated", Err: io.ErrUnexpectedEOF}
	}
	return err
}
