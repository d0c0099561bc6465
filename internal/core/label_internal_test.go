package core

import (
	"math/rand"
	"testing"

	"mrcc/internal/dataset"
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

// TestLabelChunkZeroAlloc pins the labeling hot kernel at exactly zero
// allocations per invocation: the kernel reads the point slice and the
// flat bounds slabs and writes labels in place, so any future change
// that reintroduces a per-point or per-β allocation (boxing, bounds
// materialization, closure capture) fails here immediately rather than
// surfacing as labeling-phase GC pressure on large datasets.
func TestLabelChunkZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin only holds on plain builds")
	}
	pts, labels, betaL, betaU, betaOwner := labelFixture(4096, 12, 9, 42)
	allocs := testing.AllocsPerRun(10, func() {
		labelChunk(pts, labels, betaL, betaU, betaOwner, 12)
	})
	if allocs != 0 {
		t.Fatalf("labelChunk allocated %.1f times per run, want exactly 0", allocs)
	}
}

// TestLabelChunkMatchesContainsPoint cross-checks the flat-slab kernel
// against the original per-β containsPoint logic on the same workload,
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

	betas := make([]BetaCluster, nb)
	for bi := range betas {
		betas[bi].L = betaL[bi*d : (bi+1)*d]
		betas[bi].U = betaU[bi*d : (bi+1)*d]
	}
	labelChunk(pts, labels, betaL, betaU, betaOwner, d)
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
