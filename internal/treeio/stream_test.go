package treeio

import (
	"bytes"
	"errors"
	"testing"

	"mrcc/internal/ctree"
)

func TestSnapshotSizeMatchesSave(t *testing.T) {
	tr := buildTree(t, "uniform", 5, 900, 4, 11)
	var buf bytes.Buffer
	written, err := Save(&buf, tr, Meta{})
	if err != nil {
		t.Fatal(err)
	}
	if got := SnapshotSize(tr); got != written {
		t.Fatalf("SnapshotSize %d, Save wrote %d", got, written)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	tr := buildTree(t, "clumped", 6, 1200, 4, 3)
	var buf bytes.Buffer
	written, err := SaveStream(&buf, tr)
	if err != nil {
		t.Fatal(err)
	}
	if written != int64(buf.Len()) || written != SnapshotSize(tr)+sizePrefixLen {
		t.Fatalf("SaveStream reported %d bytes, buffer holds %d, size dictates %d",
			written, buf.Len(), SnapshotSize(tr)+sizePrefixLen)
	}
	for _, opt := range []LoadOptions{{}, {TrustChecksums: true}} {
		loaded, err := LoadStream(bytes.NewReader(buf.Bytes()), opt)
		if err != nil {
			t.Fatalf("opt=%+v: %v", opt, err)
		}
		if !ctree.Equal(tr, loaded) {
			t.Fatalf("opt=%+v: streamed tree differs", opt)
		}
		if tr.MemoryBytes() != loaded.MemoryBytes() {
			t.Fatalf("opt=%+v: MemoryBytes changed across the stream", opt)
		}
	}
}

// TestStreamBackToBack checks frame boundaries: two snapshots written
// consecutively on one stream decode back to back with nothing
// consumed past each frame.
func TestStreamBackToBack(t *testing.T) {
	a := buildTree(t, "uniform", 4, 500, 4, 21)
	b := buildTree(t, "duplicates", 4, 800, 4, 22)
	var buf bytes.Buffer
	if _, err := SaveStream(&buf, a); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveStream(&buf, b); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	la, err := LoadStream(r, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := LoadStream(r, LoadOptions{TrustChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ctree.Equal(a, la) || !ctree.Equal(b, lb) {
		t.Fatal("back-to-back frames decoded to the wrong trees")
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left unconsumed after the last frame", r.Len())
	}
}

func TestStreamTruncationAndBadPrefix(t *testing.T) {
	tr := buildTree(t, "uniform", 3, 300, 4, 5)
	var buf bytes.Buffer
	if _, err := SaveStream(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 4, sizePrefixLen, sizePrefixLen + HeaderSize/2, len(full) - 1} {
		if _, err := LoadStream(bytes.NewReader(full[:cut]), LoadOptions{}); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// A hostile prefix must be refused before any allocation happens.
	huge := append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, full[sizePrefixLen:]...)
	var fe *FormatError
	if _, err := LoadStream(bytes.NewReader(huge), LoadOptions{}); !errors.As(err, &fe) {
		t.Errorf("hostile size prefix: got %v, want *FormatError", err)
	}
	tiny := make([]byte, sizePrefixLen)
	tiny[0] = 1 // declared size 1 < HeaderSize
	if _, err := LoadStream(bytes.NewReader(tiny), LoadOptions{}); err == nil {
		t.Error("undersized prefix accepted")
	}
}

// TestTrustedLoadStillRejectsCorruptColumns pins that TrustChecksums
// only skips the structural pass, never the checksums themselves: a
// flipped byte in a column is still refused.
func TestTrustedLoadStillRejectsCorruptColumns(t *testing.T) {
	tr := buildTree(t, "uniform", 5, 600, 4, 9)
	var buf bytes.Buffer
	if _, err := Save(&buf, tr, Meta{}); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	corrupt := append([]byte(nil), snap...)
	corrupt[HeaderSize+17] ^= 0x40
	var fe *FormatError
	if _, _, err := Load(bytes.NewReader(corrupt), int64(len(corrupt)), LoadOptions{TrustChecksums: true}); !errors.As(err, &fe) {
		t.Fatalf("corrupt column under TrustChecksums: got %v, want *FormatError", err)
	}
}

// TestTrustedLoadMatchesValidated pins that the fast path decodes the
// same tree as the validated path, including through files.
func TestTrustedLoadMatchesValidated(t *testing.T) {
	tr := buildTree(t, "clumped", 15, 2000, 4, 13)
	var buf bytes.Buffer
	if _, err := Save(&buf, tr, Meta{}); err != nil {
		t.Fatal(err)
	}
	validated, _, err := Load(bytes.NewReader(buf.Bytes()), int64(len(buf.Bytes())), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trusted, _, err := Load(bytes.NewReader(buf.Bytes()), int64(len(buf.Bytes())), LoadOptions{TrustChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ctree.Equal(validated, trusted) {
		t.Fatal("trusted load decoded a different tree")
	}
	if validated.MemoryBytes() != trusted.MemoryBytes() {
		t.Fatal("trusted load changed MemoryBytes")
	}
	// Re-save byte-identity holds through the trusted path too.
	var resaved bytes.Buffer
	if _, err := Save(&resaved, trusted, Meta{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), resaved.Bytes()) {
		t.Fatal("trusted load + re-save is not byte-identical")
	}
}
