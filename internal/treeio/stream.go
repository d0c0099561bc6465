// Snapshot streaming over byte streams that carry no out-of-band
// length — net.Conn between a shard worker and its coordinator being
// the motivating case. Load needs the exact snapshot size up front
// (the header's declared geometry is checked against it before any
// column memory is allocated), and a file provides it via Stat; a
// stream cannot, so SaveStream prefixes the snapshot with its size and
// LoadStream reads the prefix, bounds the reader to it, and hands the
// rest to the ordinary validated load path. The framed bytes after the
// 8-byte prefix are exactly the file format — a received stream can be
// spooled to disk and reopened with LoadFile.
package treeio

import (
	"encoding/binary"
	"fmt"
	"io"

	"mrcc/internal/ctree"
)

// sizePrefixLen is the length of the uint64 size prefix SaveStream
// writes before the snapshot bytes.
const sizePrefixLen = 8

// SnapshotSize returns the exact number of bytes Save would write for
// the tree (without a checkpoint trailer): the fixed header plus the
// six raw columns. It is O(1) — sizes are a pure function of the
// tree's row count and dimensionality.
func SnapshotSize(t *ctree.Tree) int64 {
	l := layout{d: t.D, h: t.H, rows: t.Columns().Rows(), eta: t.Eta}
	l.columnSizes()
	return int64(l.totalSize())
}

// SaveStream writes the tree's snapshot to w framed for a byte stream:
// an 8-byte little-endian size prefix followed by exactly that many
// snapshot bytes (the ordinary Save format). It returns the total
// bytes written including the prefix.
func SaveStream(w io.Writer, t *ctree.Tree) (int64, error) {
	var prefix [sizePrefixLen]byte
	binary.LittleEndian.PutUint64(prefix[:], uint64(SnapshotSize(t)))
	n, err := w.Write(prefix[:])
	written := int64(n)
	if err != nil {
		return written, err
	}
	wrote, err := Save(w, t, Meta{})
	return written + wrote, err
}

// LoadStream reads one size-prefixed snapshot from r (the SaveStream
// framing) and assembles the tree under the ordinary validation
// contract, tuned by opt. Reading stops exactly at the frame boundary,
// so consecutive frames on one stream decode back to back. A hostile
// size prefix cannot force an allocation: the snapshot header's
// declared geometry must reproduce the prefixed size exactly before
// any column memory is allocated.
func LoadStream(r io.Reader, opt LoadOptions) (*ctree.Tree, error) {
	var prefix [sizePrefixLen]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, readErr("stream size prefix", err)
	}
	size := binary.LittleEndian.Uint64(prefix[:])
	if size < HeaderSize || size > uint64(1)<<62 {
		return nil, &FormatError{Section: "stream size prefix", Msg: fmt.Sprintf("declared size %d outside the valid snapshot range", size)}
	}
	t, _, err := Load(io.LimitReader(r, int64(size)), int64(size), opt)
	return t, err
}
