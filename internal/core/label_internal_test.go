package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/synthetic"
)

// labelFixture builds a deterministic labeling workload: n points in
// [0,1)^d and nb β-cluster boxes (every other one relevant on a few
// axes), flattened the way labelPoints hands them to the kernel.
func labelFixture(n, d, nb int, seed int64) (pts [][]float64, labels []int, betaL, betaU []float64, betaOwner []int) {
	rng := rand.New(rand.NewSource(seed))
	pts = make([][]float64, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	labels = make([]int, n)
	betaL = make([]float64, nb*d)
	betaU = make([]float64, nb*d)
	betaOwner = make([]int, nb)
	for bi := 0; bi < nb; bi++ {
		betaOwner[bi] = bi % 3
		for j := 0; j < d; j++ {
			lo := 0.0
			hi := 1.0
			if (bi+j)%2 == 0 { // relevant axis: a narrow slab
				lo = rng.Float64() * 0.8
				hi = lo + 0.15
			}
			betaL[bi*d+j] = lo
			betaU[bi*d+j] = hi
		}
	}
	return pts, labels, betaL, betaU, betaOwner
}

// fixtureLabeler builds the Labeler of labelFixture's flattened boxes:
// β bi spans [betaL[bi·d:], betaU[bi·d:]] and belongs to cluster
// betaOwner[bi]. The boxes carry no level, so the labeler's grid is one
// cell per axis and every slab the fixture draws is tested in float.
func fixtureLabeler(betaL, betaU []float64, betaOwner []int, d int) (*Labeler, []BetaCluster) {
	betas := make([]BetaCluster, len(betaOwner))
	var clusters []Cluster
	for bi, own := range betaOwner {
		betas[bi].L = betaL[bi*d : (bi+1)*d]
		betas[bi].U = betaU[bi*d : (bi+1)*d]
		for len(clusters) <= own {
			clusters = append(clusters, Cluster{ID: len(clusters)})
		}
		clusters[own].Betas = append(clusters[own].Betas, bi)
	}
	return NewLabeler(betas, clusters, d), betas
}

// TestLabelChunkZeroAlloc pins the labeling hot kernel at exactly zero
// allocations per invocation: the kernel reads the point slice and the
// labeler's tables and writes labels in place, so
// any future change that reintroduces a per-point or per-β allocation
// (boxing, bounds materialization, closure capture) fails here
// immediately rather than surfacing as labeling-phase GC pressure on
// large datasets.
func TestLabelChunkZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin only holds on plain builds")
	}
	pts, labels, betaL, betaU, betaOwner := labelFixture(4096, 12, 9, 42)
	lb, _ := fixtureLabeler(betaL, betaU, betaOwner, 12)
	allocs := testing.AllocsPerRun(10, func() {
		lb.labelChunk(pts, labels)
	})
	if allocs != 0 {
		t.Fatalf("labelChunk allocated %.1f times per run, want exactly 0", allocs)
	}
}

// TestLabelChunkMatchesContainsPoint cross-checks the lookup kernel
// against the per-β containsPoint float test on the same workload,
// including points nudged exactly onto box edges (both bounds are
// inclusive) and out of [0,1) on an irrelevant axis — the run-on-tree
// case the kernel must keep rejecting even though validated datasets
// never produce it.
func TestLabelChunkMatchesContainsPoint(t *testing.T) {
	const d, nb = 7, 6
	pts, labels, betaL, betaU, betaOwner := labelFixture(2000, d, nb, 43)
	// Edge and out-of-range probes.
	edge := make([]float64, d)
	copy(edge, betaL[0:d]) // exactly on every lower bound of β0
	pts = append(pts, edge)
	upper := make([]float64, d)
	copy(upper, betaU[0:d]) // exactly on every upper bound of β0
	pts = append(pts, upper)
	out := make([]float64, d)
	for j := range out {
		out[j] = 1.5 // outside [0,1] everywhere: must stay Noise
	}
	pts = append(pts, out)
	labels = append(labels, 0, 0, 0)

	lb, betas := fixtureLabeler(betaL, betaU, betaOwner, d)
	lb.labelChunk(pts, labels)
	for i, pt := range pts {
		want := Noise
		for bi := range betas {
			if containsPoint(&betas[bi], pt) {
				want = betaOwner[bi]
				break
			}
		}
		if labels[i] != want {
			t.Fatalf("point %d: labelChunk says %d, containsPoint says %d", i, labels[i], want)
		}
	}
	if labels[len(labels)-3] != betaOwner[0] || labels[len(labels)-2] != betaOwner[0] {
		t.Fatal("edge probes missed β0: bounds are no longer inclusive")
	}
	if labels[len(labels)-1] != Noise {
		t.Fatal("out-of-range probe was labeled: the kernel stopped checking irrelevant axes")
	}
}

// TestLabelPointsConstantAllocs pins end-to-end labeling — slab setup
// included — at a small constant allocation count independent of the
// dataset size: labels, the owner table, the two bounds slabs, and
// nothing per point. The budget (16) is ~3× the measured figure so Go
// runtime changes do not flake it, while any per-point pattern (4096+
// allocations here) blows through immediately.
func TestLabelPointsConstantAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin only holds on plain builds")
	}
	pts, _, betaL, betaU, betaOwner := labelFixture(4096, 10, 6, 44)
	ds := &dataset.Dataset{Dims: 10, Points: pts}
	betas := make([]BetaCluster, len(betaOwner))
	for bi := range betas {
		betas[bi].L = betaL[bi*10 : (bi+1)*10]
		betas[bi].U = betaU[bi*10 : (bi+1)*10]
		betas[bi].Relevant = make([]bool, 10)
	}
	clusters := []Cluster{{ID: 0}, {ID: 1}, {ID: 2}}
	for bi, own := range betaOwner {
		clusters[own].Betas = append(clusters[own].Betas, bi)
	}
	const budget = 16
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := labelPoints(ds, betas, clusters, 1, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("labelPoints allocated %.0f times for 4096 points, budget %d — labeling regressed toward per-point allocation", allocs, budget)
	}
}

// containsPoint reports whether the β-cluster box contains the point
// (inclusive bounds; irrelevant axes span the whole cube): the float
// test the Labeler's lookup is pinned against.
func containsPoint(b *BetaCluster, pt []float64) bool {
	for j, v := range pt {
		if v < b.L[j] || v > b.U[j] {
			return false
		}
	}
	return true
}

// checkLabeler labels pts with the Labeler of betas (β b owned by
// cluster b%5) and fails on the first point whose label differs from
// the float test's: the owner of the first β whose box containsPoint
// accepts, or Noise. Both the single-point and the chunk entry points
// are checked.
func checkLabeler(t *testing.T, name string, betas []BetaCluster, d int, pts [][]float64) {
	t.Helper()
	var clusters []Cluster
	for b := range betas {
		if b < 5 {
			clusters = append(clusters, Cluster{ID: b})
		}
		clusters[b%5].Betas = append(clusters[b%5].Betas, b)
	}
	lb := NewLabeler(betas, clusters, d)
	labels := make([]int, len(pts))
	noise := lb.labelChunk(pts, labels)
	wantNoise := int64(0)
	for i, pt := range pts {
		want := Noise
		for b := range betas {
			if containsPoint(&betas[b], pt) {
				want = b % 5
				break
			}
		}
		if want == Noise {
			wantNoise++
		}
		if got := lb.Label(pt); got != want || labels[i] != want {
			t.Fatalf("%s: point %d %v: Label %d, labelChunk %d, float test %d", name, i, pt, got, labels[i], want)
		}
	}
	if noise != wantNoise {
		t.Fatalf("%s: labelChunk counted %d noise points, want %d", name, noise, wantNoise)
	}
}

// edgeProbes returns points on and just off the edges of every box:
// for each β and axis, the box's center with that axis moved to L_j,
// U_j and their float neighbours; then the special coordinates 0,
// −0.0, 1−1e−9, 1 and values outside [0,1] (NaN included) on each axis
// of a box center.
func edgeProbes(betas []BetaCluster, d int) [][]float64 {
	var pts [][]float64
	specials := []float64{0, math.Copysign(0, -1), 1 - 1e-9, 1, math.Nextafter(1, 0), -1e-300, -0.5, 1.5, 1 + 1e-9, math.Inf(1), math.Inf(-1), math.NaN()}
	for b := range betas {
		center := make([]float64, d)
		for j := range center {
			center[j] = betas[b].L[j] + (betas[b].U[j]-betas[b].L[j])/2
		}
		pts = append(pts, center)
		for j := 0; j < d; j++ {
			l, u := betas[b].L[j], betas[b].U[j]
			for _, v := range []float64{l, u, math.Nextafter(l, -1), math.Nextafter(u, 2), math.Nextafter(l, 2), math.Nextafter(u, -1)} {
				p := slices.Clone(center)
				p[j] = v
				pts = append(pts, p)
			}
			if j < 4 {
				for _, v := range specials {
					p := slices.Clone(center)
					p[j] = v
					pts = append(pts, p)
				}
			}
		}
	}
	for _, v := range specials {
		p := make([]float64, d)
		for j := range p {
			p[j] = v
		}
		pts = append(pts, p)
	}
	return pts
}

// dyadicBoxes returns nb boxes whose relevant bounds are multiples of
// 2^-level (a cell at level, widened by a neighbour cell on either side
// at random, clamped to [0,1]), as the β-search writes them; level 0
// draws each box's level from 1..ctree.MaxLevels-1.
func dyadicBoxes(rng *rand.Rand, nb, d, level int) []BetaCluster {
	betas := make([]BetaCluster, nb)
	for b := range betas {
		lv := level
		if lv == 0 {
			lv = 1 + rng.Intn(ctree.MaxLevels-1)
		}
		side := ctree.SideLen(lv)
		cells := uint64(1) << uint(lv)
		bt := BetaCluster{L: make([]float64, d), U: make([]float64, d), Level: lv}
		for j := 0; j < d; j++ {
			if rng.Intn(3) == 0 {
				bt.L[j], bt.U[j] = 0, 1
				continue
			}
			c := float64(rng.Uint64() % cells)
			l, u := c*side, (c+1)*side
			if rng.Intn(2) == 0 {
				l -= side
			}
			if rng.Intn(2) == 0 {
				u += side
			}
			bt.L[j], bt.U[j] = math.Max(0, l), math.Min(1, u)
		}
		betas[b] = bt
	}
	return betas
}

// TestLabelerMatchesContainsPoint sweeps the lookup labeler against
// the float test over β sets from real runs (at levels below, at and
// past the grid cap), dyadic boxes at every level 1..MaxLevels-1 alone
// and mixed, labelFixture's non-dyadic boxes (with and without a
// level), and 0, 63, 64, 65 and 130 β-clusters (one to three mask
// words), each probed with random points, points on and beside every
// box edge, and the special coordinates 0, −0.0, 1−1e−9, 1 and values
// outside [0,1].
func TestLabelerMatchesContainsPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	random := func(n, d int) [][]float64 {
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, d)
			for j := range pts[i] {
				pts[i][j] = rng.Float64()
			}
		}
		return pts
	}
	type realRun struct {
		name string
		H    int
		ds   *dataset.Dataset
	}
	var runs []realRun
	for _, tc := range []struct{ H, d int }{{4, 6}, {6, 5}} {
		ds, _, err := synthetic.Generate(synthetic.Config{
			Dims: tc.d, Points: 6000, Clusters: 3, NoiseFrac: 0.1,
			MinClusterDim: 2, MaxClusterDim: tc.d, Seed: int64(tc.H),
		})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, realRun{fmt.Sprintf("synthetic %dd", tc.d), tc.H, ds})
	}
	// Twelve tight blobs in uniform noise: the run finds β-clusters at
	// levels 2, 3 and 8, the grid cap.
	blobs := dataset.New(3, 0)
	blobs.Points = random(30000, 3)
	for k := 0; k < 12; k++ {
		ctr := []float64{0.1 + 0.8*rng.Float64(), 0.1 + 0.8*rng.Float64(), 0.1 + 0.8*rng.Float64()}
		for i := 0; i < 200; i++ {
			blobs.Append([]float64{ctr[0] + 1e-7*rng.NormFloat64(), ctr[1] + 1e-7*rng.NormFloat64(), ctr[2] + 1e-7*rng.NormFloat64()})
		}
	}
	runs = append(runs, realRun{"blobs 3d", 20, blobs})
	for _, r := range runs {
		res, err := Run(context.Background(), Input{Dataset: r.ds}, Config{H: r.H})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Betas) < 3 {
			t.Fatalf("%s: the run found %d β-clusters, want >= 3", r.name, len(res.Betas))
		}
		checkLabeler(t, fmt.Sprintf("run over %s at H=%d", r.name, r.H), res.Betas, r.ds.Dims, slices.Concat(r.ds.Points, edgeProbes(res.Betas, r.ds.Dims)))
	}
	const d = 4
	for lv := 1; lv <= ctree.MaxLevels-1; lv++ {
		betas := dyadicBoxes(rng, 6, d, lv)
		checkLabeler(t, fmt.Sprintf("dyadic level %d", lv), betas, d, slices.Concat(random(200, d), edgeProbes(betas, d)))
	}
	for _, nb := range []int{0, 63, 64, 65, 130} {
		betas := dyadicBoxes(rng, nb, d, 0)
		checkLabeler(t, fmt.Sprintf("%d mixed-level β", nb), betas, d, slices.Concat(random(2000, d), edgeProbes(betas, d)))
		betas = dyadicBoxes(rng, nb, d, 3)
		checkLabeler(t, fmt.Sprintf("%d level-3 β", nb), betas, d, slices.Concat(random(2000, d), edgeProbes(betas, d)))
	}
	for _, nb := range []int{6, 65, 130} {
		pts, _, betaL, betaU, _ := labelFixture(1000, 7, nb, int64(nb))
		_, betas := fixtureLabeler(betaL, betaU, make([]int, nb), 7)
		checkLabeler(t, fmt.Sprintf("labelFixture %d β", nb), betas, 7, slices.Concat(pts, edgeProbes(betas, 7)))
		for b := range betas {
			betas[b].Level = 1 + b%ctree.MaxLevels
		}
		checkLabeler(t, fmt.Sprintf("labelFixture %d β with levels", nb), betas, 7, slices.Concat(pts, edgeProbes(betas, 7)))
	}
}
