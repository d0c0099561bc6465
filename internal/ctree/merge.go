package ctree

import (
	"fmt"
	"math"
)

// Insert counts one additional point (in [0,1)^d) into the tree with
// the same counts Build gives it. The clustering phase can then
// be re-run over the updated tree, which is how a downstream system
// keeps clusters fresh while data streams in (InsertBatch amortizes
// the descent over sorted chunks when points arrive in batches).
//
// Insert refuses to count past MaxPoints: the N and P counters are
// int32 and the counts would otherwise silently wrap.
func (t *Tree) Insert(p []float64) error {
	if len(p) != t.D {
		return fmt.Errorf("ctree: point has %d values, want %d", len(p), t.D)
	}
	if t.Eta >= MaxPoints {
		return fmt.Errorf("ctree: tree already counts %d points, the int32 cell-counter maximum (MaxPoints); shard larger datasets into separate trees", t.Eta)
	}
	// Validate and quantize every axis once at level H before touching
	// the tree; per-level locs are bit slices of the level-H coordinate
	// (bit-exact with locAtLevel, the oracle of
	// TestQuantizeLevelHMatchesLocAtLevel; see batch.go).
	var qs [MaxDims]uint64
	scale := float64(uint64(1) << uint(t.H))
	for j, v := range p {
		if v < 0 || v >= 1 || math.IsNaN(v) {
			return fmt.Errorf("ctree: axis %d value %g outside [0,1): dataset must be normalized", j, v)
		}
		qs[j] = uint64(v * scale)
	}
	t.invalidateIndexes()
	cur := rootRef
	prev := NilRef
	for h := 1; h <= t.H-1; h++ {
		var loc uint64
		for j := 0; j < t.D; j++ {
			loc |= ((qs[j] >> uint(t.H-h)) & 1) << uint(j)
		}
		c, _ := t.ensureChild(cur, loc)
		t.n[c]++
		if prev >= 0 {
			popcountLower(t.PRow(prev), loc, t.dmask)
		}
		cur, prev = c, c
	}
	var leaf uint64
	for j := 0; j < t.D; j++ {
		leaf |= (qs[j] & 1) << uint(j)
	}
	popcountLower(t.PRow(prev), leaf, t.dmask)
	t.Eta++
	return nil
}

// MergeFrom adds every count of other into t: t becomes the union of
// the two cell sets, each cell's N and half-space counters the sum of
// both sides' and its usedCell flag set when either side's is. Both
// trees must have the same dimensionality and resolution count. other
// is left untouched; use it to combine trees built over shards of one
// dataset, or a tree with itself.
//
// The merge is one depth-first walk over both trees at once (the
// dual-tree traversal of Gray and Moore): at every union cell it merges
// the two sides' child runs in loc order — an ascending run is read as
// it is chained, a first-touch run (grown by InsertBatch) is sorted
// first — so the union's cells come out in the canonical DFS preorder
// Build creates them in. The walk records where each union cell comes
// from; the union is then written into a fresh arena sized at exactly
// ArenaCapFor(rows), with each wide node's child table built once at
// its final size. t ends up canonical, with Build's columns and
// MemoryBytes for the same cells, whatever order either input was in,
// and every Ref into t from before the merge is void.
//
// MergeFrom refuses a merge whose combined point count would exceed
// MaxPoints: every cell counter is int32 and the root cells (which
// count all η points of their subtree) would wrap first. t is left
// unmodified when an error is returned.
func (t *Tree) MergeFrom(other *Tree) error {
	if other == nil {
		return nil
	}
	if t.D != other.D || t.H != other.H {
		return fmt.Errorf("ctree: cannot merge (d=%d, H=%d) with (d=%d, H=%d)",
			t.D, t.H, other.D, other.H)
	}
	if int64(t.Eta)+int64(other.Eta) > int64(MaxPoints) {
		return fmt.Errorf("ctree: merging %d + %d points exceeds the int32 cell-counter maximum %d (MaxPoints); shard into separate trees",
			t.Eta, other.Eta, int64(MaxPoints))
	}
	t.invalidateIndexes()
	w := newMergeWalk(t, other)
	w.walk(rootRef, rootRef, rootRef, 0)
	t.adoptColumns(w.union(), len(w.steps))
	t.link()
	t.Eta += other.Eta
	// Fold the shard's build statistics so the merged root reports
	// build-wide totals to the observability layer.
	t.grows += other.grows
	t.runs += other.runs
	t.runPoints += other.runPoints
	t.radixChunks += other.radixChunks
	return nil
}

// mergeWalk is one MergeFrom's plan: one step per union row, in
// canonical preorder, the root sentinel first. runA and runB hold, per
// level, the child run the walk is merging at that level.
type mergeWalk struct {
	a, b       *Tree
	steps      []mergeStep
	runA, runB [][]Ref
}

// mergeStep plans one union row, a child of union row parent: the sum
// of cell a of tree a and cell b of tree b, or a copy of the one of the
// two that is set when only one side stores the cell.
type mergeStep struct {
	a, b, parent Ref
}

// newMergeWalk returns the plan of merging b into a, holding the root
// sentinel's step.
func newMergeWalk(a, b *Tree) *mergeWalk {
	w := &mergeWalk{
		a: a, b: b,
		steps: make([]mergeStep, 1, max(len(a.loc), len(b.loc))),
		runA:  make([][]Ref, a.H),
		runB:  make([][]Ref, a.H),
	}
	w.steps[0] = mergeStep{rootRef, rootRef, NilRef}
	return w
}

// walk merges the child runs of cell ra of a and cell rb of b, which
// are union row row at level lvl, planning each union child and then
// its subtree: DFS preorder, siblings ascending by loc.
func (w *mergeWalk) walk(ra, rb, row Ref, lvl int) {
	ka, kb := w.runA[lvl][:0], w.runB[lvl][:0]
	if ra >= 0 {
		ka = w.a.appendChildren(ka, ra)
	}
	if rb >= 0 {
		kb = w.b.appendChildren(kb, rb)
	}
	w.runA[lvl], w.runB[lvl] = ka, kb
	la, lb := w.a.loc, w.b.loc
	deeper := lvl+1 < w.a.H-1
	for i, j := 0, 0; i < len(ka) || j < len(kb); {
		st := mergeStep{NilRef, NilRef, row}
		switch {
		case j == len(kb) || (i < len(ka) && la[ka[i]] < lb[kb[j]]):
			st.a = ka[i]
			i++
		case i == len(ka) || lb[kb[j]] < la[ka[i]]:
			st.b = kb[j]
			j++
		default:
			st.a, st.b = ka[i], kb[j]
			i++
			j++
		}
		child := Ref(len(w.steps))
		w.steps = append(w.steps, st)
		if deeper {
			w.walk(st.a, st.b, child, lvl+1)
		}
	}
}

// union writes the planned rows into fresh state columns at the
// canonical arena capacity: each row takes its position and level from
// whichever side stores the cell and sums both sides' counts.
func (w *mergeWalk) union() Columns {
	d, rows := w.a.D, len(w.steps)
	capRows := ArenaCapFor(rows)
	c := Columns{
		Loc:    make([]uint64, rows, capRows),
		N:      make([]int32, rows, capRows),
		Used:   make([]bool, rows, capRows),
		Level:  make([]uint8, rows, capRows),
		Parent: make([]Ref, rows, capRows),
		P:      make([]int32, rows*d, capRows*d),
	}
	a, b := w.a, w.b
	c.Parent[0] = NilRef
	for i := 1; i < rows; i++ {
		st := w.steps[i]
		src, r := a, int(st.a)
		if r < 0 {
			src, r = b, int(st.b)
		}
		c.Parent[i] = st.parent
		c.Loc[i], c.Level[i] = src.loc[r], src.level[r]
		c.N[i], c.Used[i] = src.n[r], src.used[r]
		row := c.P[i*d : i*d+d]
		copy(row, src.p[r*d:r*d+d])
		if st.a >= 0 && st.b >= 0 {
			rb := int(st.b)
			c.N[i] += b.n[rb]
			c.Used[i] = c.Used[i] || b.used[rb]
			for j, v := range b.p[rb*d : rb*d+d] {
				row[j] += v
			}
		}
	}
	return c
}
