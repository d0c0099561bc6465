// Sorted batch counting: the quantize kernels and the carry-over
// descent that every tree producer counts through.
//
// Instead of one root-to-leaf descent per point (H-1 child lookups,
// each a hash probe or chain scan), points are quantized to the full
// level-H grid in one pass, sorted by their root-to-leaf cell path
// (level-major, i.e. Morton/Z-order over the grid), and maximal runs
// of points sharing one stored path are counted in a single descent:
// the run's shared-prefix cells are reached by resuming the previous
// run's descent stack at the first diverging level, N and the
// level-1..H-2 half-space counters are bumped by the run length at
// once, and only the deepest level's half-space update (which depends
// on each point's level-H parity) stays per point. Build's sort phase
// (sortShard, build.go) quantizes and sorts whole shards or spilled
// runs into record streams, and its count phase (countMerged) feeds
// the merged runs to countRunPacked/countRunAt.
//
// Every count starts on an empty tree, so every cell at or below a
// run's divergence level is new: the sorted order visits each path
// prefix in one stretch, so a prefix that differs from the previous
// run's has never been seen. The descent appends those cells without a
// child lookup, in path order.
//
// The quantize pass is branch-reduced (DESIGN.md §12): one float
// multiply + floor per coordinate gives the level-H grid value, the
// parity word accumulates in the same loop, and validation is a single
// unsigned comparison on the float's bit pattern (valid exactly when
// bits < bits(1.0) or the value is -0.0, which quantizes to cell 0
// like +0.0) instead of the three-way range-and-NaN test. A point the
// fast pass rejects re-runs the slow validator to reproduce the exact
// historical error text.
//
// Determinism: the sort key is the path itself with the point's
// arrival index as the tie-break, so the permutation is a pure function
// of the points.
//
// When d·(H-1) <= 64 bits the whole path packs into one uint64, by
// table lookup (keySpread), and a stream sorts with the stable LSD
// pair-radix kernel of radix.go.
// Multi-word keys (d·(H-1) > 64) fall back to a comparison sort over
// the permutation (sortKeyOrder).
// Quantization at level H is bit-exact with the per-level locAtLevel
// arithmetic (the oracle of TestQuantizeLevelHMatchesLocAtLevel): v·2^H
// is an exact float64 product (power-of-two scale), so
// floor(v·2^h) == floor(v·2^H) >> (H-h) for every level h.
package ctree

import (
	"fmt"
	"math"
	"math/bits"
)

// f64OneBits is the bit pattern of float64(1.0): a float is a valid
// normalized coordinate exactly when its bits are below this (covering
// [+0, 1) — NaNs, infinities and values >= 1 all compare higher) or
// equal to f64NegZeroBits.
const f64OneBits = 0x3FF0000000000000

// f64NegZeroBits is the bit pattern of -0.0, the single sign-bit
// pattern that still quantizes into the grid (uint64(-0.0 · 2^H) == 0,
// identical to +0.0 — the slow validator accepts it, so the fast one
// must too).
const f64NegZeroBits = uint64(1) << 63

// batchInserter is the count loop's carry-over descent: the stack of
// the current run's path, which the next run resumes at the first
// level where the two paths diverge. One inserter serves one tree,
// empty when the count begins.
type batchInserter struct {
	t *Tree

	// Descent stack: refs[h]/locs[h] address the level-h cell of the
	// current run's path (refs[0] is the root sentinel); the first
	// `have` levels are valid carry-over from the previous run.
	refs []Ref
	locs []uint64
	have int
}

// newBatchInserter returns a fresh inserter for t.
func newBatchInserter(t *Tree) *batchInserter {
	b := &batchInserter{t: t, refs: make([]Ref, t.H), locs: make([]uint64, t.H)}
	b.refs[0] = rootRef
	return b
}

// packedDivergence returns the shallowest level at which the packed
// path keys k and prev differ, or H when they are equal. Level h
// occupies key bits [(H-1-h)·d, (H-h)·d), so the highest set bit of the
// XOR lies in the diverging level's lane, and the levels from there
// down number ⌈bits.Len64(k^prev) / d⌉.
func packedDivergence(k, prev uint64, d, H int) int {
	return H - (bits.Len64(k^prev)+d-1)/d
}

// wordsDivergence is packedDivergence for multi-word keys (kw[h-1] is
// the level-h loc).
func wordsDivergence(kw, prev []uint64) int {
	div := 1
	for div <= len(kw) && kw[div-1] == prev[div-1] {
		div++
	}
	return div
}

// quantizeLevelH validates one point and writes its level-H grid
// coordinates into qi; index is the point's position in the slice the
// caller reports errors against. It is the slow, exact-error kernel:
// the fused fast pass below re-runs it on the rare invalid point to
// reproduce the historical error text.
func quantizeLevelH(p []float64, d, H int, qi []uint64, index int) error {
	if len(p) != d {
		return fmt.Errorf("ctree: point %d: ctree: point has %d values, want %d", index, len(p), d)
	}
	scale := float64(uint64(1) << uint(H))
	for j, v := range p {
		if v < 0 || v >= 1 || math.IsNaN(v) {
			return fmt.Errorf("ctree: point %d: ctree: axis %d value %g outside [0,1): dataset must be normalized", index, j, v)
		}
		qi[j] = uint64(v * scale)
	}
	return nil
}

// quantizeFast is the branch-reduced validate+quantize kernel: one
// unsigned comparison on the float's bit pattern replaces the
// three-way range-and-NaN test (valid exactly when bits < bits(1.0),
// covering [+0, 1) — NaNs, infinities, negatives and values >= 1 all
// compare higher — plus the lone -0.0 pattern, which quantizes to cell
// 0 like +0.0). Returns false on the first invalid coordinate; the
// caller re-validates with quantizeLevelH for the exact error. It
// also accumulates the level-H parity word (bit j = low bit of the
// axis-j grid value) while the coordinate is already in a register.
// Multi-word keys and packed keys deeper than one spread row pack from
// the qi it fills.
//
//go:noinline
func quantizeFast(p []float64, scale float64, qi []uint64) (leaf uint64, ok bool) {
	for j, v := range p {
		if b := math.Float64bits(v); b >= f64OneBits && b != f64NegZeroBits {
			return 0, false
		}
		g := uint64(v * scale)
		qi[j] = g
		leaf |= (g & 1) << uint(j)
	}
	return leaf, true
}

// keySpread packs path keys by table lookup. An axis's H-1 path bits
// are its level-H grid coordinate without the leaf bit, level 1 the
// most significant; in the packed key, path bit i of axis j sits at
// bit i·d + j (level h's lane is bits [(H-1-h)·d, (H-h)·d)). Row c
// spreads path bits 8c..8c+7 to stride d: entry x holds bit b of x at
// bit (8c+b)·d. An axis's spread word is the OR of its rows' entries,
// and the key the OR of every axis's word shifted left by its axis
// number. One table serves every point of one (d, H) with
// d·(H-1) <= 64: ⌈(H-1)/8⌉ rows, at most 8 (d = 1, H = 60). Build
// makes one per build and shares it with its sort workers or spilled
// runs.
type keySpread [][256]uint64

// newKeySpread returns the spread table of the packed layout of a
// d-dimensional tree at H resolutions, or nil for the multi-word
// layout (d·(H-1) > 64).
func newKeySpread(d, H int) keySpread {
	if keyWords(d, H) != 1 {
		return nil
	}
	ks := make(keySpread, (H-1+7)/8)
	for c := range ks {
		for x := range ks[c] {
			var w uint64
			for b := 0; b < 8; b++ {
				// Bits past path bit H-2 never occur; a shift past the
				// word yields 0.
				w |= uint64(x>>b&1) << uint((8*c+b)*d)
			}
			ks[c][x] = w
		}
	}
	return ks
}

// quantizePackedKey validates and quantizes one point and returns its
// packed path key and level-H parity word. ok is false when some
// coordinate is invalid. qi is caller-owned scratch of at least d
// words (reused across points); the caller guarantees len(p) == d and
// that ks is the table of the tree's (d, H). With one spread row
// (H <= 9) one fused loop validates, quantizes and packs; deeper keys
// quantize into qi first and pack from there.
func (ks keySpread) quantizePackedKey(p []float64, H int, qi []uint64) (key, leaf uint64, ok bool) {
	scale := float64(uint64(1) << uint(H))
	if len(ks) == 1 {
		return quantizeSpread(&ks[0], p, scale)
	}
	leaf, ok = quantizeFast(p, scale, qi)
	if !ok {
		return 0, 0, false
	}
	return ks.key(qi[:len(p)]), leaf, true
}

// quantizeSpread is quantizeFast fused with the key pack of a
// one-row spread table: the coordinate's path bits index the row while
// the grid value is still in a register. Against quantizeFast followed
// by the lookup pass it measured about 25% faster (BenchmarkQuantize's
// shape, d = 15, H = 4); fusing with the per-level shift loop the
// table replaced had measured about 40% slower.
//
//go:noinline
func quantizeSpread(row *[256]uint64, p []float64, scale float64) (key, leaf uint64, ok bool) {
	for j, v := range p {
		if b := math.Float64bits(v); b >= f64OneBits && b != f64NegZeroBits {
			return 0, 0, false
		}
		g := uint64(v * scale)
		leaf |= (g & 1) << uint(j)
		key |= row[g>>1&0xff] << uint(j)
	}
	return key, leaf, true
}

// key packs the quantized point qi's path through a table of two or
// more rows (see keySpread).
func (ks keySpread) key(qi []uint64) uint64 {
	var k uint64
	for j, g := range qi {
		var w uint64
		for c := range ks {
			w |= ks[c][g>>uint(8*c+1)&0xff]
		}
		k |= w << uint(j)
	}
	return k
}

// quantizeKeyWords is quantizePackedKey for the multi-word key layout:
// kw[h-1] receives the level-h loc word.
func quantizeKeyWords(p []float64, d, H int, kw []uint64, qi []uint64) (leaf uint64, ok bool) {
	leaf, ok = quantizeFast(p, float64(uint64(1)<<uint(H)), qi)
	if !ok {
		return 0, false
	}
	pathKeyWords(qi, d, H, kw)
	return leaf, true
}

// pathKeyWords writes a quantized point's per-level locs into
// kw[0..H-2] (kw[h-1] is the level-h loc) — the multi-word key layout.
func pathKeyWords(qi []uint64, d, H int, kw []uint64) {
	for h := 1; h <= H-1; h++ {
		var loc uint64
		for j := 0; j < d; j++ {
			loc |= ((qi[j] >> uint(H-h)) & 1) << uint(j)
		}
		kw[h-1] = loc
	}
}

// countRunAt counts one run of cnt points sharing the multi-word path
// key kw (kw[h-1] is the level-h loc): it resumes the carry-over
// descent stack at the first diverging level, bumps N at every level
// and the level-1..H-2 half-space counters by cnt, and returns the
// deepest cell's P row so the caller can apply the per-point
// leaf-parity updates. The count loop uses it for multi-word keys;
// callers must present paths in sorted order for the carry-over to be
// correct.
func (b *batchInserter) countRunAt(kw []uint64, cnt int32) []int32 {
	t := b.t
	H := t.H
	div := 1
	if b.have > 0 {
		div = wordsDivergence(kw, b.locs[1:H])
	}
	for h := div; h <= H-1; h++ {
		b.refs[h] = t.pushCell(b.refs[h-1], kw[h-1], uint8(h))
		b.locs[h] = kw[h-1]
	}
	b.have = H - 1
	// N at every level gets the whole run at once; so do the half-space
	// counters of levels 1..H-2, whose update depends only on the run's
	// (shared) next-level loc.
	for h := 1; h <= H-1; h++ {
		t.n[b.refs[h]] += cnt
	}
	for h := 1; h <= H-2; h++ {
		row := t.PRow(b.refs[h])
		for ms := ^b.locs[h+1] & t.dmask; ms != 0; ms &= ms - 1 {
			row[bits.TrailingZeros64(ms)] += cnt
		}
	}
	t.runs++
	t.runPoints += int64(cnt)
	return t.PRow(b.refs[H-1])
}

// countRunPacked is countRunAt specialized for the single-word key
// layout: the divergence level comes straight from the XOR of the
// run's key with the previous run's (packedDivergence), and per-level
// locs are shifted out of the key on demand — no locs array
// maintenance, no per-level compare loop. prev is ignored when first is
// true. A run that repeats the previous run's key (one path longer than
// the count loop's leaf buffer) descends nowhere new. Sorted key order
// makes the carry-over exact, as in countRunAt.
func (b *batchInserter) countRunPacked(k, prev uint64, first bool, cnt int32) []int32 {
	t := b.t
	H := t.H
	d := uint(t.D)
	div := 1
	if !first {
		div = packedDivergence(k, prev, t.D, H)
	}
	for h := div; h <= H-1; h++ {
		b.refs[h] = t.pushCell(b.refs[h-1], (k>>(uint(H-1-h)*d))&t.dmask, uint8(h))
	}
	for h := 1; h <= H-1; h++ {
		t.n[b.refs[h]] += cnt
	}
	for h := 1; h <= H-2; h++ {
		row := t.PRow(b.refs[h])
		next := (k >> (uint(H-2-h) * d)) & t.dmask
		for ms := ^next & t.dmask; ms != 0; ms &= ms - 1 {
			row[bits.TrailingZeros64(ms)] += cnt
		}
	}
	t.runs++
	t.runPoints += int64(cnt)
	return t.PRow(b.refs[H-1])
}

// quantizeErr reproduces the exact per-point validation error after
// the fused fast pass flagged the point as invalid.
func quantizeErr(p []float64, d, H, index int) error {
	var qi [MaxDims]uint64
	if err := quantizeLevelH(p, d, H, qi[:d], index); err != nil {
		return err
	}
	// Unreachable: the fast and slow validators accept the same set.
	return fmt.Errorf("ctree: point %d: invalid point", index)
}
