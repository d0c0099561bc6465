package core

import (
	"math"
	"math/bits"
)

// f64OneBits is the bit pattern of 1.0: a float's bits are at most
// this exactly when it lies in [+0, 1] (NaNs and negative values,
// -0.0 included, compare higher).
const f64OneBits = 0x3FF0000000000000

// labelGridBits caps the labeler's grid at 2^labelGridBits cells per
// axis. Every bound the β-search writes is a multiple of 2^-Level, so
// up to this level the grid splits no bound; past it, a split cell's
// β are tested in float (the mixed masks). 256 cells keep the table of
// a 14-d run with 64 β-clusters at 84 KiB.
const labelGridBits = 8

// Labeler labels points by the rule of the labeling phase: a point
// belongs to the correlation cluster owning the first β-cluster whose
// box (bounds inclusive, every axis checked) contains it, or to Noise.
// The batch pipeline labels its dataset with one (labelPoints) and the
// streaming service answers queries with one built per published view,
// so both apply one rule. A Labeler is immutable once built and safe
// for concurrent use.
//
// Instead of testing boxes one by one, it looks the point up axis by
// axis. On a grid of 2^g cells per axis, g = min(the β-clusters'
// deepest level, labelGridBits), each axis j and cell c has three
// masks over the β-clusters (bit b of word b/64 for β b):
//   - in: the boxes whose axis-j interval covers cell c whole;
//   - edge: the boxes whose U_j is c's lower edge, which hold the
//     coordinate only when it sits exactly on that edge;
//   - mixed: the boxes a bound splits c for, whose float test runs
//     for a coordinate in c.
//
// A coordinate's mask is in, OR edge when it lies on the edge, OR the
// mixed boxes its float test keeps; the AND of the per-axis masks is
// the set of boxes holding the point, and its lowest bit the first
// one. The words are looked up one at a time, lowest first, so the
// first word with a box holding the point holds the first such box.
// Cell 2^g stands for the coordinate 1 alone. A coordinate outside
// [0,1] (or NaN) is tested in float against every box still in the
// running, so the lookup agrees with the float test (containsPoint)
// for any bounds and any coordinate.
type Labeler struct {
	d, nb int
	// cells is 2^g; scale is the same as a float, the factor that maps
	// a coordinate to its grid position.
	cells int
	scale float64
	// words is ⌈nb/64⌉. tab holds the masks of mask word w, axis j and
	// cell c at tab[(w·d+j)·(cells+1)+c].
	words int
	tab   []cellMasks
	// all has a bit set for every β-cluster.
	all []uint64
	// lo and hi hold the bounds axis-major: lo[j*nb+b] is β b's L_j.
	lo, hi []float64
	// owner maps a β-cluster to its correlation cluster.
	owner []int
}

// cellMasks is one (mask word, axis, cell) entry of a Labeler's table.
type cellMasks struct{ in, edge, mixed uint64 }

// NewLabeler returns the labeler of the β-clusters betas, grouped into
// clusters, over d-dimensional points.
func NewLabeler(betas []BetaCluster, clusters []Cluster, d int) *Labeler {
	owner := make([]int, len(betas))
	for _, c := range clusters {
		for _, b := range c.Betas {
			owner[b] = c.ID
		}
	}
	nb := len(betas)
	g := 0
	for i := range betas {
		g = max(g, betas[i].Level)
	}
	g = min(g, labelGridBits)
	lb := &Labeler{d: d, nb: nb, cells: 1 << g, scale: float64(uint64(1) << g), words: (nb + 63) / 64, owner: owner}
	lb.tab = make([]cellMasks, lb.words*d*(lb.cells+1))
	lb.all = make([]uint64, lb.words)
	bounds := make([]float64, 2*d*nb)
	lb.lo, lb.hi = bounds[:d*nb], bounds[d*nb:]
	for b := range betas {
		lb.all[b/64] |= 1 << uint(b%64)
		for j := 0; j < d; j++ {
			// Bounds shorter than d read as 0, as the flattened slabs
			// of the float test always did.
			if j < len(betas[b].L) {
				lb.lo[j*nb+b] = betas[b].L[j]
			}
			if j < len(betas[b].U) {
				lb.hi[j*nb+b] = betas[b].U[j]
			}
			lb.fill(j, b)
		}
	}
	return lb
}

// fill sets β b's bits in axis j's table. A condition that compares
// with a NaN bound is false, so such a bound leaves its cells mixed
// and the float test decides, as it did before the table.
func (lb *Labeler) fill(j, b int) {
	L, U := lb.lo[j*lb.nb+b], lb.hi[j*lb.nb+b]
	axis, bit := lb.tab[(b/64*lb.d+j)*(lb.cells+1):][:lb.cells+1], uint64(1)<<uint(b%64)
	for c := range axis[:lb.cells] {
		lo, hi := float64(c)/lb.scale, float64(c+1)/lb.scale
		switch {
		case !(lo < L) && hi <= U:
			axis[c].in |= bit
		case hi <= L || lo > U:
			// Every coordinate of the cell lies below L or above U.
		case lo == U:
			// Only the cell's lower edge can lie in the box.
			if !(lo < L) {
				axis[c].edge |= bit
			}
		default:
			axis[c].mixed |= bit
		}
	}
	if !(1 < L) && !(1 > U) {
		axis[lb.cells].edge |= bit
	}
}

// first returns the index of the first β-cluster whose box contains
// pt, or -1.
func (lb *Labeler) first(pt []float64) int {
	for w := 0; w < lb.words; w++ {
		if m := lb.match(pt, w); m != 0 {
			return w*64 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// match returns mask word w of the β-clusters whose boxes contain pt.
// Its loop is the lookup alone: the first coordinate that is not in
// [+0, 1] (by one comparison of its bits) or whose cell has mixed
// boxes hands the rest of the point to matchFrom, so the loop makes no
// call.
func (lb *Labeler) match(pt []float64, w int) uint64 {
	acc := lb.all[w]
	per := lb.cells + 1
	tab := lb.tab[w*lb.d*per : (w+1)*lb.d*per]
	for j, v := range pt {
		if math.Float64bits(v) > f64OneBits {
			return lb.matchFrom(pt, w, j, acc)
		}
		x := v * lb.scale
		c := int(x)
		e := &tab[j*per+c]
		if e.mixed != 0 {
			return lb.matchFrom(pt, w, j, acc)
		}
		m := e.in
		if float64(c) == x {
			m |= e.edge
		}
		if acc &= m; acc == 0 {
			return 0
		}
	}
	return acc
}

// matchFrom is match from axis j on, for the β-clusters acc still in
// the running, with the float tests.
func (lb *Labeler) matchFrom(pt []float64, w, j int, acc uint64) uint64 {
	per := lb.cells + 1
	tab := lb.tab[w*lb.d*per : (w+1)*lb.d*per]
	for ; j < len(pt) && acc != 0; j++ {
		v := pt[j]
		if !(v >= 0 && v <= 1) {
			acc = lb.test(acc, w, j, v)
			continue
		}
		x := v * lb.scale
		c := int(x)
		e := &tab[j*per+c]
		m := e.in
		if float64(c) == x {
			m |= e.edge
		}
		if mixed := e.mixed & acc &^ m; mixed != 0 {
			m |= lb.test(mixed, w, j, v)
		}
		acc &= m
	}
	return acc
}

// test returns the β-clusters of mask word w (bit i is β 64·w+i)
// whose axis-j interval [L_j, U_j] holds v: the float test.
func (lb *Labeler) test(mask uint64, w, j int, v float64) uint64 {
	lo, hi := lb.lo[j*lb.nb:(j+1)*lb.nb], lb.hi[j*lb.nb:(j+1)*lb.nb]
	var keep uint64
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if b := w*64 + i; !(v < lo[b] || v > hi[b]) {
			keep |= 1 << uint(i)
		}
	}
	return keep
}

// Label returns the ID of the correlation cluster owning the first
// β-cluster box that contains p, or Noise.
func (lb *Labeler) Label(p []float64) int {
	if b := lb.first(p); b >= 0 {
		return lb.owner[b]
	}
	return Noise
}

// labelChunk labels pts[i] into labels[i] and returns the noise count.
// It allocates nothing and writes only labels, so disjoint chunks run
// concurrently.
func (lb *Labeler) labelChunk(pts [][]float64, labels []int) (noise int64) {
	for i, pt := range pts {
		lbl := Noise
		if b := lb.first(pt); b >= 0 {
			lbl = lb.owner[b]
		} else {
			noise++
		}
		labels[i] = lbl
	}
	return noise
}
