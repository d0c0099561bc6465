package ctree

import (
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mrcc/internal/dataset"
)

// fuzzBatches is one decoded FuzzInsertBatch input: a geometry, the
// points, a split of them into consecutive batches, and how to spoil
// one point: which point, which axis, and which kind of invalid value.
type fuzzBatches struct {
	d, H               int
	points             [][]float64
	batches            [][][]float64
	spoilAt, spoilAxis int
	spoil              int
}

// decodeFuzzBatches turns the fuzzer's bytes into a fuzzBatches. The
// first five bytes choose d ∈ [1, 16] and H ∈ [3, 6], so both key
// layouts occur (d·(H-1) > 64 from d = 13 at H = 6), up to 300 points
// and how often a point repeats an earlier one. Every later byte is a
// coordinate, a repeat choice, a batch cut (up to 8 batches) or a
// spoiling choice, read in that order and, once the input runs out,
// drawn from a generator seeded by the input. A coordinate byte picks
// 0, -0.0, the largest float64 below 1, or a value on a 1/256 grid, so
// equal coordinates and equal points are common.
func decodeFuzzBatches(data []byte) fuzzBatches {
	h := fnv.New64a()
	h.Write(data)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	next := func() byte {
		if len(data) > 0 {
			b := data[0]
			data = data[1:]
			return b
		}
		return byte(rng.Intn(256))
	}
	f := fuzzBatches{d: 1 + int(next())%16, H: 3 + int(next())%4}
	n := 1 + (int(next())<<8|int(next()))%300
	repeat := int(next())
	for i := 0; i < n; i++ {
		if i > 0 && int(next()) < repeat {
			f.points = append(f.points, f.points[int(next())%i])
			continue
		}
		p := make([]float64, f.d)
		for j := range p {
			switch b := next(); b {
			case 0:
				p[j] = 0
			case 1:
				p[j] = math.Copysign(0, -1)
			case 2:
				p[j] = math.Nextafter(1, 0)
			default:
				p[j] = float64(b) / 256
			}
		}
		f.points = append(f.points, p)
	}
	cuts := []int{0, n}
	for k := int(next()) % 8; k > 0; k-- {
		cuts = append(cuts, int(next())%(n+1))
	}
	slices.Sort(cuts)
	for i := 1; i < len(cuts); i++ {
		f.batches = append(f.batches, f.points[cuts[i-1]:cuts[i]])
	}
	f.spoilAt, f.spoilAxis, f.spoil = int(next())%n, int(next())%f.d, int(next())%4
	return f
}

// FuzzInsertBatch is the tree layer's property check of the ingest
// path. For every decoded input, the tree fed batch by batch through
// InsertBatch must be Equal to Build's tree of all the points, with the
// written-once footprint of those cells (Build's MemoryBytes); one
// InsertBatch call of all of them into an empty tree must write Build's
// columns row for row; Build of the first batch (one point at least)
// followed by InsertBatch of the rest, batch by batch, must be Equal to
// Build's tree and hold its columns; and a batch holding one invalid
// value (NaN, 1, a negative value or a short row) must be refused and
// leave the tree Equal to before, with the same Eta. The run list
// (Runs.Add) takes the same batches: the Union of its runs must be
// Equal to Build's tree and hold its columns and MemoryBytes, and the
// spoiled batch must be refused with the list returned unchanged.
//
//	go test -run '^$' -fuzz FuzzInsertBatch -fuzztime 30s ./internal/ctree
func FuzzInsertBatch(f *testing.F) {
	f.Add([]byte{4, 1, 0, 200, 0, 7, 9, 11, 13, 2, 50, 150})         // packed keys, d = 5
	f.Add([]byte{14, 3, 1, 44, 0, 3, 0, 1, 2, 3, 4, 5, 6})           // multi-word keys, d = 15, H = 6
	f.Add([]byte{0, 0, 0, 120, 255, 1, 0, 1, 2, 0, 1, 2, 7, 1, 2})   // d = 1, nearly every point a repeat
	f.Add([]byte{15, 2, 0, 255, 30, 2, 2, 2, 2, 0, 0, 1, 1, 5, 250}) // d = 16, H = 5, edge values
	f.Fuzz(func(t *testing.T, data []byte) {
		in := decodeFuzzBatches(data)
		ds := &dataset.Dataset{Dims: in.d, Points: in.points}
		whole, err := Build(ds, in.H, BuildOptions{})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		batched := New(in.d, in.H)
		for _, b := range in.batches {
			if err := batched.InsertBatch(b); err != nil {
				t.Fatalf("InsertBatch: %v", err)
			}
		}
		if !Equal(batched, whole) || batched.Eta != whole.Eta {
			t.Fatalf("d=%d H=%d: %d batches diverged from Build", in.d, in.H, len(in.batches))
		}
		if want := whole.MemoryBytes(); batched.MemoryBytes() != want {
			t.Fatalf("batched tree reports %d bytes, want Build's footprint %d", batched.MemoryBytes(), want)
		}
		one := New(in.d, in.H)
		if err := one.InsertBatch(in.points); err != nil {
			t.Fatalf("InsertBatch: %v", err)
		}
		if !sameColumns(one.Columns(), whole.Columns()) || one.MemoryBytes() != whole.MemoryBytes() {
			t.Fatalf("d=%d H=%d: one call wrote other columns than Build", in.d, in.H)
		}

		// Build a prefix, InsertBatch the rest at the decoded cuts.
		k := max(1, len(in.batches[0]))
		prefixed, err := Build(&dataset.Dataset{Dims: in.d, Points: in.points[:k]}, in.H, BuildOptions{})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		pos := 0
		for _, b := range in.batches {
			if lo, hi := max(pos, k), pos+len(b); lo < hi {
				if err := prefixed.InsertBatch(in.points[lo:hi]); err != nil {
					t.Fatalf("InsertBatch: %v", err)
				}
			}
			pos += len(b)
		}
		if !Equal(prefixed, whole) || prefixed.Eta != whole.Eta {
			t.Fatalf("d=%d H=%d: Build of %d points and InsertBatch of the rest diverged from Build", in.d, in.H, k)
		}
		if !sameColumns(prefixed.Columns(), whole.Columns()) {
			t.Fatalf("d=%d H=%d: the prefixed tree holds other columns than Build's", in.d, in.H)
		}

		// The points again, one of them spoiled: the batch is refused
		// and the grown tree is left as it was.
		spoiled := slices.Clone(in.points[in.spoilAt])
		switch in.spoil {
		case 0:
			spoiled[in.spoilAxis] = math.NaN()
		case 1:
			spoiled[in.spoilAxis] = 1
		case 2:
			spoiled[in.spoilAxis] = math.Nextafter(0, -1)
		case 3:
			spoiled = spoiled[:in.d-1]
		}
		bad := slices.Clone(in.points)
		bad[in.spoilAt] = spoiled
		before := batched.Clone()
		if err := batched.InsertBatch(bad); err == nil {
			t.Fatalf("InsertBatch accepted a batch with point %d spoiled (kind %d)", in.spoilAt, in.spoil)
		}
		if !Equal(batched, before) || batched.Eta != before.Eta {
			t.Fatal("a refused batch changed the tree")
		}

		var runs Runs
		for _, b := range in.batches {
			if runs, err = runs.Add(b, in.d, in.H); err != nil {
				t.Fatalf("Runs.Add: %v", err)
			}
		}
		united, err := Union(runs...)
		if err != nil {
			t.Fatalf("Union of the runs: %v", err)
		}
		if !Equal(united, whole) || united.Eta != whole.Eta || !sameColumns(united.Columns(), whole.Columns()) || united.MemoryBytes() != whole.MemoryBytes() {
			t.Fatalf("d=%d H=%d: the union of %d runs diverged from Build", in.d, in.H, len(runs))
		}
		if kept, err := runs.Add(bad, in.d, in.H); err == nil || !slices.Equal(kept, runs) {
			t.Fatalf("Runs.Add of a batch with point %d spoiled (kind %d): err %v, the list changed: %v", in.spoilAt, in.spoil, err, !slices.Equal(kept, runs))
		}
	})
}
