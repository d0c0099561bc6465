package ctree

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"mrcc/internal/dataset"
)

// randDataset returns n uniform points in [0,1)^d, deterministic per
// seed.
func randDataset(t *testing.T, n, d int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.New(d, n)
	for i := 0; i < n; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		ds.Append(p)
	}
	return ds
}

// TestBuildCancelled proves a cancelled context aborts the build on
// every worker count, in memory and spilled, and surfaces
// context.Canceled.
func TestBuildCancelled(t *testing.T) {
	ds := randDataset(t, 20000, 8, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the first checkpoint must observe it
	for _, workers := range []int{1, 2, 8} {
		for _, spillDir := range []string{"", t.TempDir()} {
			_, err := Build(ds, 4, BuildOptions{Workers: workers, Ctx: ctx, SpillDir: spillDir})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d spill=%q: want context.Canceled, got %v", workers, spillDir, err)
			}
		}
	}
}

// TestBuildMemoryLimit proves a tiny budget is refused with the same
// *LimitError on every worker count (the merged record sequence, and
// with it the cell count that sizes the arena before it is allocated,
// does not depend on it), and that a generous budget builds the
// identical tree.
func TestBuildMemoryLimit(t *testing.T) {
	ds := randDataset(t, 20000, 8, 3)
	var first *LimitError
	for _, workers := range []int{1, 2, 8} {
		_, err := Build(ds, 4, BuildOptions{Workers: workers, MemoryLimitBytes: 1024})
		var le *LimitError
		if !errors.As(err, &le) {
			t.Fatalf("workers=%d: want *LimitError, got %v", workers, err)
		}
		if le.LimitBytes != 1024 || le.EstimateBytes <= 1024 || le.H != 4 {
			t.Fatalf("workers=%d: malformed LimitError %+v", workers, le)
		}
		if first == nil {
			first = le
		} else if *le != *first {
			t.Fatalf("workers=%d: LimitError %+v differs from %+v", workers, le, first)
		}
	}
	want, err := Build(ds, 4, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Build(ds, 4, BuildOptions{Workers: 4, MemoryLimitBytes: 1 << 40})
	if err != nil {
		t.Fatalf("generous limit refused: %v", err)
	}
	if !Equal(got, want) {
		t.Fatal("limited build differs from the unlimited one")
	}
}

// TestCellCountMatchesLevels proves CellCount, the arena's rows less
// the root, agrees with a full level walk, on a built tree and after an
// insert.
func TestCellCountMatchesLevels(t *testing.T) {
	ds := randDataset(t, 3000, 5, 4)
	tr, err := Build(ds, 4, BuildOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	counts := tr.levelCellCountsWalk()
	var total int64
	for _, n := range counts {
		total += int64(n)
	}
	if tr.CellCount() != total {
		t.Fatalf("CellCount %d != level-walk total %d", tr.CellCount(), total)
	}
	if err := tr.Insert([]float64{0.123, 0.456, 0.789, 0.321, 0.654}); err != nil {
		t.Fatal(err)
	}
	counts = tr.levelCellCountsWalk()
	total = 0
	for _, n := range counts {
		total += int64(n)
	}
	if tr.CellCount() != total {
		t.Fatalf("after Insert: CellCount %d != level-walk total %d", tr.CellCount(), total)
	}
	if tr.MemoryBytes() == 0 {
		t.Fatal("MemoryBytes is zero on a populated tree")
	}
}
