package treeio

import (
	"bytes"
	"math/rand"
	"testing"

	"mrcc/internal/ctree"
	"mrcc/internal/synthetic"
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

// BenchmarkSnapshotLoad measures the full validated load path —
// header parse, column reads, checksums and the structural
// revalidation, which groups the cells by parent — from an in-memory
// snapshot. "uniform" is
// benchTree's snapshot, the EXPERIMENTS.md GB/s row. "canonical" and
// "firsttouch" hold the same cells, 100k points of the stream-grow
// shape (d = 15, H = 4): Build's snapshot, and the same rows in
// first-touch order (firstTouchSnapshot), a snapshot an older release
// saved from a tree it grew batch by batch, which the loader rewrites
// in canonical order once.
//
//	go test -run '^$' -bench BenchmarkSnapshotLoad ./internal/treeio
func BenchmarkSnapshotLoad(b *testing.B) {
	save := func(tr *ctree.Tree) []byte {
		var buf bytes.Buffer
		if _, err := Save(&buf, tr, Meta{}); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}
	ds, _, err := synthetic.Generate(synthetic.Config{
		Dims: 15, Points: 100_000, Clusters: 10, NoiseFrac: 0.15,
		MinClusterDim: 8, MaxClusterDim: 13, Seed: 314,
	})
	if err != nil {
		b.Fatal(err)
	}
	stream, err := ctree.Build(ds, 4, ctree.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		snap []byte
	}{
		{"uniform", save(benchTree(b))},
		{"canonical", save(stream)},
		{"firsttouch", firstTouchSnapshot(stream, ds.Points)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.snap)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Load(bytes.NewReader(bc.snap), int64(len(bc.snap)), LoadOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
