// Package synthetic generates the datasets of the paper's experimental
// section (IV-B and IV-C): Gaussian correlation clusters placed in random
// axis-aligned subspaces plus uniform noise, optional rotation of the
// whole dataset in random planes (the *_r group), and a surrogate for the
// proprietary KDD Cup 2008 mammography data.
//
// All generators are seeded and fully deterministic.
package synthetic

import (
	"fmt"
	"math"
	"math/rand"

	"mrcc/internal/dataset"
	"mrcc/internal/linalg"
)

// GroundTruth carries what the generator knows about a dataset: the real
// cluster of every point (Noise for none) and the axes relevant to each
// real cluster.
type GroundTruth struct {
	// Labels[i] is the real cluster of point i, or Noise.
	Labels []int
	// Relevant[k][j] reports whether axis j is relevant to real cluster k.
	Relevant [][]bool
}

// Noise marks points that belong to no real cluster.
const Noise = -1

// NumClusters returns the number of real clusters.
func (g *GroundTruth) NumClusters() int { return len(g.Relevant) }

// Config describes one synthetic dataset in the style of Section IV-B.
type Config struct {
	// Dims is the space dimensionality d.
	Dims int
	// Points is the total number of points η (clusters + noise).
	Points int
	// Clusters is the number of correlation clusters.
	Clusters int
	// NoiseFrac is the fraction of points that are uniform noise.
	NoiseFrac float64
	// MinClusterDim and MaxClusterDim bound each cluster's subspace
	// dimensionality δ; they are clamped to [2, Dims].
	MinClusterDim, MaxClusterDim int
	// Rotations applies this many random Givens plane rotations to the
	// finished dataset (0 for the axis-aligned groups, 4 for *_r).
	Rotations int
	// Seed makes the dataset reproducible.
	Seed int64
}

func (c Config) validate() error {
	if c.Dims < 2 {
		return fmt.Errorf("synthetic: need at least 2 dims, got %d", c.Dims)
	}
	if c.Points < c.Clusters {
		return fmt.Errorf("synthetic: %d points cannot host %d clusters", c.Points, c.Clusters)
	}
	if c.Clusters < 1 {
		return fmt.Errorf("synthetic: need at least 1 cluster, got %d", c.Clusters)
	}
	if c.NoiseFrac < 0 || c.NoiseFrac >= 1 {
		return fmt.Errorf("synthetic: noise fraction must be in [0,1), got %g", c.NoiseFrac)
	}
	return nil
}

// Generate builds the dataset and its ground truth. Cluster points follow
// axis-aligned Gaussians with random means and standard deviations in the
// δ relevant axes and are uniform in the remaining axes; noise points are
// uniform everywhere, exactly as the paper describes.
func Generate(cfg Config) (*dataset.Dataset, *GroundTruth, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := cfg.Dims

	minDim := clamp(cfg.MinClusterDim, 2, d)
	maxDim := clamp(cfg.MaxClusterDim, minDim, d)

	noiseN := int(float64(cfg.Points) * cfg.NoiseFrac)
	clusterN := cfg.Points - noiseN

	// Random cluster sizes: a random positive weight per cluster, at
	// least a handful of points each.
	sizes := randomSizes(rng, clusterN, cfg.Clusters)

	ds := dataset.New(d, cfg.Points)
	gt := &GroundTruth{
		Labels:   make([]int, 0, cfg.Points),
		Relevant: make([][]bool, cfg.Clusters),
	}

	specs := placeClusters(rng, d, cfg.Clusters, minDim, maxDim)
	for k, spec := range specs {
		gt.Relevant[k] = spec.rel
		for i := 0; i < sizes[k]; i++ {
			p := make([]float64, d)
			for j := 0; j < d; j++ {
				if spec.rel[j] {
					p[j] = clampUnit(spec.mean[j] + spec.sd[j]*rng.NormFloat64())
				} else {
					p[j] = rng.Float64()
				}
			}
			ds.Append(p)
			gt.Labels = append(gt.Labels, k)
		}
	}
	for i := 0; i < noiseN; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		ds.Append(p)
		gt.Labels = append(gt.Labels, Noise)
	}

	shuffle(rng, ds, gt)

	if cfg.Rotations > 0 {
		if err := Rotate(ds, cfg.Rotations, rng); err != nil {
			return nil, nil, err
		}
	}
	contiguous(ds)
	return ds, gt, nil
}

// Rotate applies n random Givens plane rotations (random plane, random
// angle) around the cube center to the dataset in place, then min–max
// renormalizes it back into [0,1)^d — producing clusters that live in
// subspaces formed by linear combinations of the original axes
// (Figures 1c/1d of the paper). A failed renormalization (e.g. an
// empty dataset) is reported as an error; an earlier version swallowed
// it into a panic, crashing the caller for an input problem.
func Rotate(ds *dataset.Dataset, n int, rng *rand.Rand) error {
	d := ds.Dims
	rot := linalg.Identity(d)
	for r := 0; r < n; r++ {
		p := rng.Intn(d)
		q := rng.Intn(d)
		for q == p {
			q = rng.Intn(d)
		}
		if p > q {
			p, q = q, p
		}
		theta := rng.Float64() * 2 * math.Pi
		rot = linalg.GivensRotation(d, p, q, theta).Mul(rot)
	}
	centered := make([]float64, d)
	out := make([]float64, d)
	for _, pt := range ds.Points {
		for j := range pt {
			centered[j] = pt[j] - 0.5
		}
		rot.MulVecInto(out, centered)
		copy(pt, out)
	}
	if _, _, err := ds.Normalize(); err != nil {
		return fmt.Errorf("synthetic: renormalizing after rotation: %w", err)
	}
	return nil
}

// clusterSpec is one generated cluster: relevant-axis flags, per-axis
// Gaussian mean and standard deviation (meaningful on relevant axes).
type clusterSpec struct {
	rel  []bool
	mean []float64
	sd   []float64
	band []int // -1 irrelevant, else 0 (low band) or 1 (high band)
}

// placeClusters draws the subspace and Gaussian parameters of every
// cluster the way the PROCLUS-family generators (which the paper says it
// follows) do, with two extra guarantees that make the ground truth
// recoverable by any subspace-box model (documented in DESIGN.md):
// (a) subspace overlap — every cluster includes a small shared core of
// axes and reuses about half the previous cluster's axes, so every pair
// of clusters shares at least one relevant axis; and (b) band
// separation — every pair of clusters sits in opposite mean bands
// (low ≈ 0.17, high ≈ 0.83) on at least one shared relevant axis.
func placeClusters(rng *rand.Rand, d, k, minDim, maxDim int) []clusterSpec {
	specs := make([]clusterSpec, 0, k)
	// Band centers stay at least ~2.5σ away from the 0.25-grid borders
	// of the method's coarsest analysis resolution, so cluster mass does
	// not spill across cells and bounding boxes stay tight.
	bandMean := func(b int) float64 {
		if b == 0 {
			return 0.10 + 0.08*rng.Float64()
		}
		return 0.82 + 0.08*rng.Float64()
	}
	// Core axes included in every cluster's subspace: pairwise
	// intersection holds by construction, and with ceil(log2(k)) core
	// axes each cluster can take a distinct band pattern on the core,
	// making pairwise band separation hold by construction too.
	coreSize := 1
	for 1<<uint(coreSize) < k {
		coreSize++
	}
	if coreSize > minDim {
		coreSize = minDim
	}
	if coreSize > d {
		coreSize = d
	}
	core := rng.Perm(d)[:coreSize]
	// Distinct core band patterns when possible (k <= 2^coreSize).
	var corePatterns []int
	if k <= 1<<uint(coreSize) {
		corePatterns = rng.Perm(1 << uint(coreSize))[:k]
	}
	for ki := 0; ki < k; ki++ {
		delta := minDim
		if maxDim > minDim {
			delta = minDim + rng.Intn(maxDim-minDim+1)
		}
		axes := append([]int(nil), core...)
		inAxes := make([]bool, d)
		for _, j := range core {
			inAxes[j] = true
		}
		// Chain: reuse about half of the previous cluster's axes, fill
		// the remainder with fresh ones.
		var pool []int
		if ki > 0 {
			prev := specs[ki-1]
			var prevAxes []int
			for j := 0; j < d; j++ {
				if prev.rel[j] && !inAxes[j] {
					prevAxes = append(prevAxes, j)
				}
			}
			rng.Shuffle(len(prevAxes), func(i, j int) { prevAxes[i], prevAxes[j] = prevAxes[j], prevAxes[i] })
			keep := delta / 2
			if keep > len(prevAxes) {
				keep = len(prevAxes)
			}
			for _, j := range prevAxes[:keep] {
				if len(axes) < delta {
					axes = append(axes, j)
					inAxes[j] = true
				}
			}
		}
		for j := 0; j < d; j++ {
			if !inAxes[j] {
				pool = append(pool, j)
			}
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		for _, j := range pool {
			if len(axes) >= delta {
				break
			}
			axes = append(axes, j)
			inAxes[j] = true
		}
		spec := clusterSpec{
			rel:  make([]bool, d),
			mean: make([]float64, d),
			sd:   make([]float64, d),
			band: make([]int, d),
		}
		for j := range spec.band {
			spec.band[j] = -1
		}
		for _, j := range axes {
			spec.rel[j] = true
			spec.sd[j] = 0.01 + 0.02*rng.Float64()
		}
		// Assign mean bands: a distinct pattern on the core axes when
		// available, random elsewhere; then iteratively repair until the
		// cluster is band-separated from every earlier one (a no-op when
		// distinct core patterns are in use).
		for j, r := range spec.rel {
			if r {
				spec.band[j] = rng.Intn(2)
			}
		}
		if corePatterns != nil {
			for bit, j := range core {
				spec.band[j] = (corePatterns[ki] >> uint(bit)) & 1
			}
		}
		for repair := 0; repair < 500; repair++ {
			conflict := -1
			for pi := range specs {
				if !bandSeparated(spec.band, specs[pi].band) {
					conflict = pi
					break
				}
			}
			if conflict < 0 {
				break
			}
			shared := sharedAxes(spec.rel, specs[conflict].rel)
			j := shared[rng.Intn(len(shared))]
			spec.band[j] = 1 - specs[conflict].band[j]
		}
		for j, b := range spec.band {
			if b >= 0 {
				spec.mean[j] = bandMean(b)
			}
		}
		specs = append(specs, spec)
	}
	return specs
}

// sharedAxes returns the axes relevant to both clusters, or nil.
func sharedAxes(a, b []bool) []int {
	var out []int
	for j := range a {
		if a[j] && b[j] {
			out = append(out, j)
		}
	}
	return out
}

// bandSeparated reports whether two band assignments disagree on at
// least one axis relevant to both.
func bandSeparated(a, b []int) bool {
	for j := range a {
		if a[j] >= 0 && b[j] >= 0 && a[j] != b[j] {
			return true
		}
	}
	return false
}

// randomSizes splits total points into k random positive parts.
func randomSizes(rng *rand.Rand, total, k int) []int {
	weights := make([]float64, k)
	sum := 0.0
	for i := range weights {
		weights[i] = 0.3 + rng.Float64()
		sum += weights[i]
	}
	sizes := make([]int, k)
	used := 0
	for i := range sizes {
		sizes[i] = int(float64(total) * weights[i] / sum)
		if sizes[i] < 1 {
			sizes[i] = 1
		}
		used += sizes[i]
	}
	// Fix rounding drift on the largest cluster.
	largest := 0
	for i, s := range sizes {
		if s > sizes[largest] {
			largest = i
		}
	}
	sizes[largest] += total - used
	if sizes[largest] < 1 {
		sizes[largest] = 1
	}
	return sizes
}

// contiguous copies the rows of ds into one backing array, in their
// order, each row sliced with capacity d. The generators build each row
// on its own and then shuffle them; one array in row order spares every
// later pass over the points a cache miss per row.
func contiguous(ds *dataset.Dataset) {
	d := ds.Dims
	flat := make([]float64, d*ds.Len())
	for i, p := range ds.Points {
		row := flat[i*d : (i+1)*d : (i+1)*d]
		copy(row, p)
		ds.Points[i] = row
	}
}

// shuffle permutes points and labels together so cluster points are not
// contiguous in the file.
func shuffle(rng *rand.Rand, ds *dataset.Dataset, gt *GroundTruth) {
	n := ds.Len()
	rng.Shuffle(n, func(i, j int) {
		ds.Points[i], ds.Points[j] = ds.Points[j], ds.Points[i]
		gt.Labels[i], gt.Labels[j] = gt.Labels[j], gt.Labels[i]
	})
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampUnit(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return math.Nextafter(1, 0)
	}
	return v
}
