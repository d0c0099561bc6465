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

// MergeFrom adds every count of other into t. Both trees must have the
// same dimensionality and resolution count. other is left untouched;
// use it to combine trees built over shards of one dataset.
//
// The merge is a single linear walk over the source arena instead of a
// recursive pointer merge: a source cell's parent always has a smaller
// Ref (parents are stored before their children), so one pass in Ref
// order can map every source cell to its destination cell (creating it
// when absent) and fold the N and half-space columns in cache order.
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
	d := t.D
	// dstOf[src Ref] = matching dst Ref; the root sentinel maps to the
	// root sentinel, and every cell's parent is resolved before the
	// cell itself because parent Refs are strictly smaller.
	dstOf := make([]Ref, len(other.loc))
	dstOf[rootRef] = rootRef
	for sr := int(rootRef) + 1; sr < len(other.loc); sr++ {
		dp := dstOf[other.parent[sr]]
		dr, _ := t.ensureChild(dp, other.loc[sr])
		dstOf[sr] = dr
		t.n[dr] += other.n[sr]
		srow := other.p[sr*d : sr*d+d]
		drow := t.p[int(dr)*d : int(dr)*d+d]
		for j := 0; j < d; j++ {
			drow[j] += srow[j]
		}
	}
	t.Eta += other.Eta
	// Fold the shard's build statistics so the merged root reports
	// build-wide totals to the observability layer.
	t.grows += other.grows
	t.runs += other.runs
	t.runPoints += other.runPoints
	t.radixChunks += other.radixChunks
	return nil
}
