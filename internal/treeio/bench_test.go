package treeio

import (
	"bytes"
	"math/rand"
	"testing"

	"mrcc/internal/ctree"
)

// benchTree builds a mid-sized tree for the IO benchmarks (d=10,
// η=200k uniform points, H=4 — ~600k cells, tens of MB of slabs).
func benchTree(b *testing.B) *ctree.Tree {
	b.Helper()
	rng := rand.New(rand.NewSource(4242))
	ds := layouts["uniform"](rng, 10, 200_000)
	tr, err := ctree.Build(ds, 4, ctree.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkSnapshotSave measures serialization throughput into a
// pre-grown in-memory buffer; bytes/op is the snapshot size, so the
// reported MB/s is the format's encode bandwidth.
func BenchmarkSnapshotSave(b *testing.B) {
	tr := benchTree(b)
	var buf bytes.Buffer
	if _, err := Save(&buf, tr, Meta{}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := Save(&buf, tr, Meta{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoad measures the full load path — header parse,
// column reads, checksums, structural revalidation, linkage rebuild —
// from an in-memory snapshot. The EXPERIMENTS.md GB/s row comes from
// here.
func BenchmarkSnapshotLoad(b *testing.B) {
	tr := benchTree(b)
	var buf bytes.Buffer
	if _, err := Save(&buf, tr, Meta{}); err != nil {
		b.Fatal(err)
	}
	snap := buf.Bytes()
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Load(bytes.NewReader(snap), int64(len(snap)), LoadOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
