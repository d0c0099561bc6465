package ctree

import (
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// Insert is the per-point oracle of the batch and build paths: it
// counts one point (in [0,1)^d) into the tree by one descent, finding
// or creating each cell through a child lookup of its own (childOf),
// with the same counts Build and InsertBatch give it. New cells go at
// the end of the arena in first-touch order, the arena order of a
// snapshot that an older release saved from a tree it grew batch by
// batch. No reader takes that order: a test hands the oracle's cells
// to one through NewFromColumns (or a snapshot of them through
// treeio), which rewrites them in canonical order, as it does such a
// snapshot. Like Build and InsertBatch it refuses to count past
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
	cur := rootRef
	prev := NilRef
	for h := 1; h <= t.H-1; h++ {
		var loc uint64
		for j := 0; j < t.D; j++ {
			loc |= ((qs[j] >> uint(t.H-h)) & 1) << uint(j)
		}
		c := childOf(t, cur, loc)
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

// childKey addresses a cell by its parent and its loc.
type childKey struct {
	par Ref
	loc uint64
}

// insertLookup is Insert's child lookup: a map from (parent, loc) to
// the child's Ref for the tree Insert counted into last. It is rebuilt
// from the parent column when Insert moves to another tree or the
// tree's arena changed since (another writer replaced its columns, or
// they grew by rows Insert did not add).
var insertLookup struct {
	sync.Mutex
	t    *Tree
	loc  *uint64 // the tree's loc column as of the last Insert
	rows int
	kids map[childKey]Ref
}

// childOf returns the child of par at loc in t, creating it when
// absent.
func childOf(t *Tree, par Ref, loc uint64) Ref {
	l := &insertLookup
	l.Lock()
	defer l.Unlock()
	if l.t != t || l.loc != unsafe.SliceData(t.loc) || l.rows != len(t.loc) {
		l.t, l.kids = t, make(map[childKey]Ref, len(t.loc))
		for r := 1; r < len(t.loc); r++ {
			l.kids[childKey{t.parent[r], t.loc[r]}] = Ref(r)
		}
	}
	r, ok := l.kids[childKey{par, loc}]
	if !ok {
		r = t.pushCell(par, loc, t.level[par]+1)
		l.kids[childKey{par, loc}] = r
	}
	l.loc, l.rows = unsafe.SliceData(t.loc), len(t.loc)
	return r
}
