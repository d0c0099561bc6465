package ctree

import (
	"errors"
	"math/rand"
	"testing"

	"mrcc/internal/dataset"
)

// shardDatasets splits ds into w contiguous shards (the partitioning
// the coordinator uses), dropping none.
func shardDatasets(t *testing.T, ds *dataset.Dataset, w int) []*dataset.Dataset {
	t.Helper()
	shards := make([]*dataset.Dataset, 0, w)
	n := len(ds.Points)
	for i := 0; i < w; i++ {
		lo, hi := i*n/w, (i+1)*n/w
		s := dataset.New(ds.Dims, hi-lo)
		for _, p := range ds.Points[lo:hi] {
			s.Append(p)
		}
		shards = append(shards, s)
	}
	return shards
}

func buildShardTrees(t *testing.T, shards []*dataset.Dataset, h int) []*Tree {
	t.Helper()
	trees := make([]*Tree, len(shards))
	for i, s := range shards {
		tr, err := Build(s, h, BuildOptions{})
		if err != nil {
			t.Fatalf("shard %d build: %v", i, err)
		}
		trees[i] = tr
	}
	return trees
}

func TestMergeTournamentMatchesSerial(t *testing.T) {
	ds := uniformDataset(t, 5, 4000, 77)
	serial, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantRounds := map[int]int{1: 0, 2: 1, 4: 2, 8: 3}
	for _, w := range []int{1, 2, 4, 8} {
		trees := buildShardTrees(t, shardDatasets(t, ds, w), 4)
		merged, rounds, err := MergeTournament(trees, 2, nil)
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if rounds != wantRounds[w] {
			t.Errorf("w=%d: %d rounds, want %d", w, rounds, wantRounds[w])
		}
		if !Equal(serial, merged) {
			t.Errorf("w=%d: merged tree differs from serial build", w)
		}
		if merged.MemoryBytes() != serial.MemoryBytes() {
			t.Errorf("w=%d: merged MemoryBytes %d != serial %d", w, merged.MemoryBytes(), serial.MemoryBytes())
		}
	}
}

// TestMergeTournamentPermutations pins the order-independence claim
// the tournament relies on: merging the same shard trees in any
// permutation yields Equal trees with identical MemoryBytes.
func TestMergeTournamentPermutations(t *testing.T) {
	ds := uniformDataset(t, 4, 3000, 99)
	for _, w := range []int{2, 3, 7} {
		shards := shardDatasets(t, ds, w)
		ref, _, err := MergeTournament(buildShardTrees(t, shards, 4), 1, nil)
		if err != nil {
			t.Fatalf("w=%d reference merge: %v", w, err)
		}
		rng := rand.New(rand.NewSource(int64(1000 + w)))
		for trial := 0; trial < 4; trial++ {
			trees := buildShardTrees(t, shards, 4)
			rng.Shuffle(len(trees), func(i, j int) { trees[i], trees[j] = trees[j], trees[i] })
			merged, _, err := MergeTournament(trees, 3, nil)
			if err != nil {
				t.Fatalf("w=%d trial %d: %v", w, trial, err)
			}
			if !Equal(ref, merged) {
				t.Errorf("w=%d trial %d: permuted merge differs", w, trial)
			}
			if merged.MemoryBytes() != ref.MemoryBytes() {
				t.Errorf("w=%d trial %d: MemoryBytes %d != %d", w, trial, merged.MemoryBytes(), ref.MemoryBytes())
			}
		}
	}
}

// TestCanonicalizeMatchesSingleChunkBuild pins the canonical-order
// claim on a dataset that fits one InsertBatch chunk: Build creates
// cells in exactly the canonical DFS preorder, so Canonicalize leaves
// it untouched and rewrites a tournament merge into the identical
// arena layout, row for row.
func TestCanonicalizeMatchesSingleChunkBuild(t *testing.T) {
	ds := uniformDataset(t, 6, 5000, 42)
	if len(ds.Points) > buildReportEvery {
		t.Fatalf("test dataset must fit one build chunk (%d points)", buildReportEvery)
	}
	serial, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Canonicalize(serial); err != nil || got != serial {
		t.Fatalf("single-chunk build not recognized as canonical (err=%v)", err)
	}
	merged, _, err := MergeTournament(buildShardTrees(t, shardDatasets(t, ds, 4), 4), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := Canonicalize(merged)
	if err != nil {
		t.Fatal(err)
	}
	a, b := serial.Columns(), canon.Columns()
	if a.Rows() != b.Rows() {
		t.Fatalf("row counts differ: %d vs %d", a.Rows(), b.Rows())
	}
	for r := 0; r < a.Rows(); r++ {
		if a.Loc[r] != b.Loc[r] || a.N[r] != b.N[r] || a.Used[r] != b.Used[r] ||
			a.Level[r] != b.Level[r] || a.Parent[r] != b.Parent[r] {
			t.Fatalf("row %d differs between single-chunk build and canonicalized merge", r)
		}
	}
	for i := range a.P {
		if a.P[i] != b.P[i] {
			t.Fatalf("half-space slab differs at %d", i)
		}
	}
	if canon.MemoryBytes() != serial.MemoryBytes() {
		t.Fatalf("canonicalized MemoryBytes %d != serial %d", canon.MemoryBytes(), serial.MemoryBytes())
	}
}

// TestCanonicalizeMultiChunk checks that canonicalizing a tree grown
// by multi-chunk InsertBatch calls and a tournament merge of the same
// dataset land on the same arena layout (neither input order is
// canonical on its own) — the layout Build produces directly.
func TestCanonicalizeMultiChunk(t *testing.T) {
	ds := uniformDataset(t, 4, 3*buildReportEvery+100, 7)
	serial := New(4, 4)
	if err := serial.InsertBatch(ds.Points); err != nil {
		t.Fatal(err)
	}
	built, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	merged, _, err := MergeTournament(buildShardTrees(t, shardDatasets(t, ds, 3), 4), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := Canonicalize(serial)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Canonicalize(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !sameColumns(ca.Columns(), cb.Columns()) {
		t.Fatal("canonicalized InsertBatch tree and merge differ")
	}
	if !sameColumns(ca.Columns(), built.Columns()) {
		t.Fatal("canonical layout differs from Build's")
	}
	if !Equal(ca, serial) {
		t.Fatal("canonicalization changed the cell set")
	}
	if ca.MemoryBytes() != serial.MemoryBytes() {
		t.Fatal("canonicalization changed MemoryBytes")
	}
}

// TestCanonicalChecksBothRules pins the two rules of canonical on
// one-dimensional trees grown a point at a time. Inserting 0.3 then
// 0.1 keeps the cells in DFS preorder but chains the second level's
// siblings in descending loc order, so only the sibling rule rejects
// the tree; inserting 0.1, 0.6 and then 0.3 creates a second-level
// cell under a first-level cell that is no longer the latest, at a loc
// above its level's latest, so only the preorder rule rejects it.
// Canonicalize must rewrite both into Build's columns, and Build's own
// tree must pass.
func TestCanonicalChecksBothRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		pts  []float64
	}{
		{"siblings descending", []float64{0.3, 0.1}},
		{"child of an earlier parent", []float64{0.1, 0.6, 0.3}},
	} {
		grown := New(1, 4)
		var pts [][]float64
		for _, v := range tc.pts {
			if err := grown.Insert([]float64{v}); err != nil {
				t.Fatal(err)
			}
			pts = append(pts, []float64{v})
		}
		if grown.canonical() {
			t.Errorf("%s: canonical accepts a tree out of canonical order", tc.name)
		}
		built := sweepBuild(t, 1, 4, pts)
		if !built.canonical() {
			t.Errorf("%s: canonical rejects Build's tree", tc.name)
		}
		c, err := Canonicalize(grown)
		if err != nil {
			t.Fatal(err)
		}
		if c == grown || !sameColumns(c.Columns(), built.Columns()) {
			t.Errorf("%s: Canonicalize did not rewrite the tree into Build's columns", tc.name)
		}
	}
}

func TestMergeTournamentCheckAborts(t *testing.T) {
	ds := uniformDataset(t, 3, 1200, 5)
	trees := buildShardTrees(t, shardDatasets(t, ds, 4), 4)
	boom := errors.New("abort")
	calls := 0
	_, _, err := MergeTournament(trees, 1, func() error {
		calls++
		if calls > 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the check's error", err)
	}
}

func TestMergeTournamentRejectsBadInput(t *testing.T) {
	if _, _, err := MergeTournament(nil, 1, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := MergeTournament([]*Tree{New(3, 4), nil}, 1, nil); err == nil {
		t.Error("nil tree accepted")
	}
}

func TestNewFromColumnsTrustedMatchesValidated(t *testing.T) {
	ds := uniformDataset(t, 5, 2500, 21)
	tr, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Columns()
	clone := func() Columns {
		return Columns{
			Loc:    append([]uint64(nil), c.Loc...),
			N:      append([]int32(nil), c.N...),
			Used:   append([]bool(nil), c.Used...),
			Level:  append([]uint8(nil), c.Level...),
			Parent: append([]Ref(nil), c.Parent...),
			P:      append([]int32(nil), c.P...),
		}
	}
	validated, err := NewFromColumns(tr.D, tr.H, tr.Eta, clone())
	if err != nil {
		t.Fatal(err)
	}
	trusted, err := NewFromColumnsTrusted(tr.D, tr.H, tr.Eta, clone())
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(validated, trusted) || !Equal(tr, trusted) {
		t.Fatal("trusted assembly differs from validated assembly")
	}
	if validated.MemoryBytes() != trusted.MemoryBytes() {
		t.Fatal("trusted assembly changed MemoryBytes")
	}
	// The safety checks stay on: broken linkage is still refused.
	bad := clone()
	bad.Parent[len(bad.Parent)-1] = Ref(len(bad.Parent)) // forward reference
	if _, err := NewFromColumnsTrusted(tr.D, tr.H, tr.Eta, bad); err == nil {
		t.Fatal("forward parent ref accepted by trusted assembly")
	}
}
