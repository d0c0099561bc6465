package ctree_test

import (
	"bytes"
	"fmt"
	"testing"

	"mrcc/internal/ctree"
	"mrcc/internal/treeio"
)

// firstTouchOracle counts pts into a tree one point at a time with the
// per-point Insert oracle, whose arena lists the cells in first-touch
// order: the rows of a snapshot that a release before the canonical
// order saved from a tree it grew batch by batch.
func firstTouchOracle(t *testing.T, d, H int, pts [][]float64) *ctree.Tree {
	t.Helper()
	tr := ctree.New(d, H)
	for _, p := range pts {
		if err := tr.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// snapshotOf returns tr's snapshot bytes.
func snapshotOf(t *testing.T, tr *ctree.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := treeio.Save(&buf, tr, treeio.Meta{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFirstTouchLoadsAsBuild pins the loaders' one rewrite: the Insert
// oracle's first-touch columns load through NewFromColumns and
// NewFromColumnsTrusted, and their snapshot through treeio's validated
// and trusted Load, into Build's tree of the same points — its columns
// row for row, written-once at its MemoryBytes, Equal to it, and
// saving its snapshot bytes. The cases cover packed and multi-word path
// keys at H = 4 and H = 60, and a one-point tree, one cell per level,
// which the oracle already writes in canonical order.
func TestFirstTouchLoadsAsBuild(t *testing.T) {
	for _, c := range []struct {
		name    string
		d, H, n int
		inPlace bool // the oracle's arena is canonical already
	}{
		{"packed/H4", 5, 4, 2000, false},     // 5·3 = 15 key bits
		{"multiword/H4", 30, 4, 2000, false}, // 30·3 = 90 > 64
		{"packed/H60", 1, 60, 300, false},    // 1·59 = 59 key bits
		{"multiword/H60", 4, 60, 300, false}, // 4·59 = 236 > 64
		{"one-point", 3, 4, 1, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			pts := footprintPoints(c.d, c.n, int64(c.d*100+c.H))
			built := buildPoints(t, pts, c.H, ctree.BuildOptions{})
			oracle := firstTouchOracle(t, c.d, c.H, pts)
			if ctree.Canonical(oracle) != c.inPlace {
				t.Fatalf("the oracle's arena is canonical: %v, want %v", ctree.Canonical(oracle), c.inPlace)
			}
			want, file := snapshotOf(t, built), snapshotOf(t, oracle)
			if !c.inPlace && bytes.Equal(file, want) {
				t.Fatal("the first-touch snapshot is Build's; the test is vacuous")
			}
			load := func(trusted bool) (*ctree.Tree, error) {
				tr, _, err := treeio.Load(bytes.NewReader(file), int64(len(file)), treeio.LoadOptions{TrustChecksums: trusted})
				return tr, err
			}
			for name, assemble := range map[string]func() (*ctree.Tree, error){
				"NewFromColumns": func() (*ctree.Tree, error) {
					return ctree.NewFromColumns(c.d, c.H, oracle.Eta, oracle.Columns())
				},
				"NewFromColumnsTrusted": func() (*ctree.Tree, error) {
					return ctree.NewFromColumnsTrusted(c.d, c.H, oracle.Eta, oracle.Columns())
				},
				"treeio.Load":         func() (*ctree.Tree, error) { return load(false) },
				"treeio.Load/trusted": func() (*ctree.Tree, error) { return load(true) },
			} {
				tr, err := assemble()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkWrittenOnce(t, name, tr)
				if !sameColumnsRows(tr.Columns(), built.Columns()) || tr.MemoryBytes() != built.MemoryBytes() || !ctree.Equal(tr, built) {
					t.Fatalf("%s: the loaded tree is not Build's, column for column", name)
				}
				if !bytes.Equal(snapshotOf(t, tr), want) {
					t.Fatalf("%s: the loaded tree does not save Build's snapshot bytes", name)
				}
			}
		})
	}
}

// TestFirstTouchRefusalNamesItsRows pins that NewFromColumns checks
// first-touch rows before it rewrites them, so a refusal names the rows
// as they were given: two children of one parent at one position, and
// children that count one point more than their parent. Each fault sits
// under a parent whose given row differs from its row in Build's tree,
// so an error naming the rewritten rows would not match.
func TestFirstTouchRefusalNamesItsRows(t *testing.T) {
	const d, H = 4, 4
	pts := footprintPoints(d, 600, 9)
	built := buildPoints(t, pts, H, ctree.BuildOptions{})
	oracle := firstTouchOracle(t, d, H, pts)
	cols := oracle.Columns()
	// Each given row's path and its children.
	paths := make([]ctree.Path, cols.Rows())
	kids := make([][]int, cols.Rows())
	p := 0 // a parent with two children, stored at another row by Build
	for r := 1; r < cols.Rows(); r++ {
		par := int(cols.Parent[r])
		paths[r] = append(paths[par].Clone(), cols.Loc[r])
		kids[par] = append(kids[par], r)
		if p == 0 && par > 0 && len(kids[par]) == 2 && built.CellAt(paths[par]) != ctree.Ref(par) {
			p = par
		}
	}
	if p == 0 {
		t.Fatal("every parent with two children sits at its Build row; the test is vacuous")
	}
	a, b := kids[p][0], kids[p][1]
	clone := func() ctree.Columns {
		return ctree.Columns{
			Loc: append([]uint64(nil), cols.Loc...), N: append([]int32(nil), cols.N...),
			Used: append([]bool(nil), cols.Used...), Level: append([]uint8(nil), cols.Level...),
			Parent: append([]ctree.Ref(nil), cols.Parent...), P: append([]int32(nil), cols.P...),
		}
	}
	dup, sum := clone(), clone()
	dup.Loc[b] = dup.Loc[a]
	sum.N[a]++
	for _, c := range []struct {
		name string
		cols ctree.Columns
		want string
	}{
		{"duplicate position", dup, fmt.Sprintf("ctree: cells %d and %d duplicate position %#x under parent %d", a, b, cols.Loc[a], p)},
		{"child sum", sum, fmt.Sprintf("ctree: children of cell %d count %d points, want %d", p, cols.N[p]+1, cols.N[p])},
	} {
		_, err := ctree.NewFromColumns(d, H, oracle.Eta, c.cols)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: got error %v, want %q", c.name, err, c.want)
		}
	}
}
