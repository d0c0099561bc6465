package ctree

import (
	"fmt"
	"math"
)

// Insert is the per-point oracle of the batch and build paths: it
// counts one point (in [0,1)^d) into the tree by one descent, finding
// or creating each cell with ensureChild, with the same counts Build
// and InsertBatch give it. Like them it refuses to count past
// MaxPoints, where the int32 counters would wrap.
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
