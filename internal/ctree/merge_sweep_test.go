package ctree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mrcc/internal/dataset"
)

// sweepShapes generates the seeded inputs of the merge property sweep:
// n points in d dimensions drawn along a randomly rotated line
// ("rotated"), a handful of distinct points repeated many times
// ("duplicates"), and uniform points whose first axis is constant
// ("flat-axis").
func sweepShapes(d, n int, seed int64) map[string][][]float64 {
	rng := rand.New(rand.NewSource(seed))
	clamp := func(v float64) float64 { return math.Min(math.Max(v, 0), 1-1e-9) }
	dir := make([]float64, d)
	norm := 0.0
	for j := range dir {
		dir[j] = rng.NormFloat64()
		norm += dir[j] * dir[j]
	}
	for j := range dir {
		dir[j] /= math.Sqrt(norm)
	}
	var rotated, dups, flat [][]float64
	distinct := make([][]float64, 7)
	for k := range distinct {
		distinct[k] = make([]float64, d)
		for j := range distinct[k] {
			distinct[k][j] = rng.Float64()
		}
	}
	for i := 0; i < n; i++ {
		s := 0.8 * (rng.Float64() - 0.5)
		p, q := make([]float64, d), make([]float64, d)
		for j := range p {
			p[j] = clamp(0.5 + s*dir[j] + 0.01*rng.NormFloat64())
			q[j] = rng.Float64()
		}
		q[0] = 0.3
		rotated = append(rotated, p)
		flat = append(flat, q)
		dups = append(dups, distinct[rng.Intn(len(distinct))])
	}
	return map[string][][]float64{"rotated": rotated, "duplicates": dups, "flat-axis": flat}
}

// sweepBuild is Build over the given points (several slices, in order).
func sweepBuild(t *testing.T, d, H int, parts ...[][]float64) *Tree {
	t.Helper()
	ds := dataset.New(d, 0)
	for _, pts := range parts {
		for _, p := range pts {
			ds.Append(p)
		}
	}
	tr, err := Build(ds, H, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// firstTouch counts pts into a tree one point at a time with the
// Insert oracle, whose arena lists the cells in first-touch order
// rather than path order: the order of a snapshot that an older release
// saved from a tree it grew batch by batch. It returns the tree
// NewFromColumns loads from those columns, as from such a snapshot.
func firstTouch(t *testing.T, d, H int, pts [][]float64) *Tree {
	t.Helper()
	tr := New(d, H)
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := NewFromColumns(d, H, tr.Eta, tr.Columns())
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// checkMerged requires got to be Equal to want (Build of the union), then
// to hold Build's columns row for row and Build's MemoryBytes.
func checkMerged(t *testing.T, name string, got, want *Tree) {
	t.Helper()
	if !Equal(got, want) {
		t.Errorf("%s: the merge is not Equal to Build of the union", name)
		return
	}
	if !sameColumns(got.Columns(), want.Columns()) {
		t.Errorf("%s: the merge's columns differ from Build's row for row", name)
	}
	if got.MemoryBytes() != want.MemoryBytes() {
		t.Errorf("%s: MemoryBytes %d, Build of the union %d", name, got.MemoryBytes(), want.MemoryBytes())
	}
}

// unionOf returns Union(trees...).
func unionOf(t *testing.T, trees ...*Tree) *Tree {
	t.Helper()
	u, err := Union(trees...)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// mergeInto merges src into dst and returns dst.
func mergeInto(t *testing.T, dst, src *Tree) *Tree {
	t.Helper()
	if err := dst.MergeFrom(src); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestMergeSweepMatchesBuild is the merge property sweep: on seeded
// rotated, duplicate-heavy and flat-axis inputs at d ∈ {1, 15, 63} and
// H ∈ {4, MaxLevels}, every MergeFrom case (first-touch ∪ first-touch,
// canonical ∪ first-touch both ways, empty sides, self-merge, folding
// single-point shards) and every Union of W ∈ {1, 3, 8} shards, built
// alternately by Build and by InsertBatch, must be Equal to Build of
// the union, hold Build's columns row for row and report Build's
// MemoryBytes. The W = 3 shards with an empty source joined are also
// united in every rotation of their list, so the union is pinned to be
// independent of its inputs' order.
func TestMergeSweepMatchesBuild(t *testing.T) {
	for _, d := range []int{1, 15, 63} {
		for _, H := range []int{4, MaxLevels} {
			n := 160
			if H == MaxLevels || d == 63 {
				n = 48
			}
			for shape, pts := range sweepShapes(d, n, int64(d*1000+H)) {
				name := fmt.Sprintf("d%d_H%d_%s", d, H, shape)
				t.Run(name, func(t *testing.T) {
					a, b := pts[:n/2], pts[n/2:]
					union := sweepBuild(t, d, H, a, b)
					checkMerged(t, "first-touch+first-touch", mergeInto(t, firstTouch(t, d, H, a), firstTouch(t, d, H, b)), union)
					checkMerged(t, "canonical+first-touch", mergeInto(t, sweepBuild(t, d, H, a), firstTouch(t, d, H, b)), union)
					checkMerged(t, "first-touch+canonical", mergeInto(t, firstTouch(t, d, H, a), sweepBuild(t, d, H, b)), union)
					whole := sweepBuild(t, d, H, pts)
					checkMerged(t, "empty+first-touch", mergeInto(t, New(d, H), firstTouch(t, d, H, pts)), whole)
					checkMerged(t, "first-touch+empty", mergeInto(t, firstTouch(t, d, H, pts), New(d, H)), whole)
					checkMerged(t, "canonical+empty", mergeInto(t, sweepBuild(t, d, H, pts), New(d, H)), whole)
					empty := mergeInto(t, New(d, H), New(d, H))
					if empty.Eta != 0 || empty.CellCount() != 0 || empty.MemoryBytes() != New(d, H).MemoryBytes() {
						t.Errorf("empty+empty: %d points, %d cells, %d bytes", empty.Eta, empty.CellCount(), empty.MemoryBytes())
					}
					self := firstTouch(t, d, H, a)
					checkMerged(t, "self-merge", mergeInto(t, self, self), sweepBuild(t, d, H, a, a))
					single := New(d, H)
					for _, p := range a[:min(len(a), 24)] {
						mergeInto(t, single, sweepBuild(t, d, H, [][]float64{p}))
					}
					checkMerged(t, "single-point shards", single, sweepBuild(t, d, H, a[:min(len(a), 24)]))
					for _, w := range []int{1, 3, 8} {
						shards := make([]*Tree, w)
						for i := range shards {
							part := pts[i*n/w : (i+1)*n/w]
							if i%2 == 0 {
								shards[i] = sweepBuild(t, d, H, part)
							} else {
								shards[i] = firstTouch(t, d, H, part)
							}
						}
						checkMerged(t, fmt.Sprintf("union/W=%d", w), unionOf(t, shards...), whole)
						if w != 3 {
							continue
						}
						shards = append(shards, New(d, H))
						for r := range shards {
							rotated := append(append([]*Tree{}, shards[r:]...), shards[:r]...)
							checkMerged(t, fmt.Sprintf("union/W=3+empty/rotation %d", r), unionOf(t, rotated...), whole)
						}
					}
				})
			}
		}
	}
}
