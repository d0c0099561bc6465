package synthetic

import (
	"fmt"
	"math/rand"

	"mrcc/internal/dataset"
)

// The KDD Cup 2008 training data (Siemens breast-cancer screening) used
// in Section IV-C is proprietary and no longer distributed. This file
// provides a statistically analogous surrogate, documented in DESIGN.md:
// four views (left/right breast × CC/MLO X-ray direction), ≈25 000 ROIs
// each, 25 automatically extracted features, with the published class
// skew (118 malignant vs 1 594 normal cases — under 1 % of ROIs are
// malignant).
//
// Real image features are strongly correlated — their intrinsic
// dimensionality is far below 25 (the paper's own slim-tree work backs
// this) — which is what makes the full-dimensional Counting-tree see
// density at all. The surrogate therefore uses a latent-factor model:
// each ROI is a point in a 5-dimensional latent space (tissue-pattern
// mixture for normal ROIs, one tight lesion signature for malignant
// ones), mapped through a random linear factor loading into 25
// correlated features plus small per-feature noise.

// KDDView names one of the four per-view datasets.
type KDDView string

// The four views of a screening exam.
const (
	LeftCC   KDDView = "left-CC"
	LeftMLO  KDDView = "left-MLO" // the view reported in Figure 5t
	RightCC  KDDView = "right-CC"
	RightMLO KDDView = "right-MLO"
)

// KDDViews lists the four views in the paper's order.
func KDDViews() []KDDView { return []KDDView{LeftCC, LeftMLO, RightCC, RightMLO} }

// KDDConfig sizes the surrogate; the zero value reproduces the paper's
// scale (25 575 ROIs per view ≈ 102 294 / 4, 25 features).
type KDDConfig struct {
	// ROIs is the number of regions of interest per view.
	ROIs int
	// Features is the feature dimensionality.
	Features int
	// LatentDims is the intrinsic dimensionality of the feature space.
	LatentDims int
	// MalignantFrac is the fraction of malignant ROIs.
	MalignantFrac float64
	// Seed makes each view reproducible; views offset it.
	Seed int64
}

func (c KDDConfig) withDefaults() KDDConfig {
	if c.ROIs == 0 {
		c.ROIs = 25575
	}
	if c.Features == 0 {
		c.Features = 25
	}
	if c.LatentDims == 0 {
		c.LatentDims = 5
	}
	if c.MalignantFrac == 0 {
		c.MalignantFrac = 0.007
	}
	return c
}

// KDDCup2008Surrogate generates one view of the surrogate. The ground
// truth follows the paper's evaluation protocol: clustering results are
// scored against the diagnosis label — real cluster 0 is the normal
// class, real cluster 1 the malignant class. Every feature carries
// signal (the loading matrix is dense), so both classes' relevant-axis
// sets cover all features.
func KDDCup2008Surrogate(view KDDView, cfg KDDConfig) (*dataset.Dataset, *GroundTruth, error) {
	cfg = cfg.withDefaults()
	if cfg.Features < cfg.LatentDims {
		return nil, nil, fmt.Errorf("synthetic: KDD surrogate needs Features >= LatentDims, got %d < %d",
			cfg.Features, cfg.LatentDims)
	}
	viewIdx := -1
	for i, v := range KDDViews() {
		if v == view {
			viewIdx = i
		}
	}
	if viewIdx < 0 {
		return nil, nil, fmt.Errorf("synthetic: unknown KDD view %q", view)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + int64(viewIdx)*7919))
	d := cfg.Features
	ld := cfg.LatentDims
	n := cfg.ROIs
	malignantN := int(float64(n) * cfg.MalignantFrac)
	if malignantN < 8 {
		malignantN = 8
	}
	normalN := n - malignantN

	// Dense random factor loading: feature_j = sum_l A[j][l]·z_l + noise.
	loading := make([][]float64, d)
	for j := range loading {
		loading[j] = make([]float64, ld)
		for l := range loading[j] {
			loading[j][l] = 0.4 + 0.6*rng.Float64()
			if rng.Intn(2) == 0 {
				loading[j][l] = -loading[j][l]
			}
		}
	}

	// Normal tissue: 4 latent Gaussian patterns plus 20 % diffuse
	// background; malignant lesions: one tight latent signature set
	// apart from the patterns.
	type pattern struct {
		mean []float64
		sd   float64
	}
	patterns := make([]pattern, 4)
	for pi := range patterns {
		mean := make([]float64, ld)
		for l := range mean {
			mean[l] = -0.6 + 1.2*rng.Float64()
		}
		patterns[pi] = pattern{mean: mean, sd: 0.05 + 0.05*rng.Float64()}
	}
	lesion := pattern{mean: make([]float64, ld), sd: 0.015}
	for l := range lesion.mean {
		lesion.mean[l] = 0.9 + 0.3*rng.Float64() // outside the pattern range
		if rng.Intn(2) == 0 {
			lesion.mean[l] = -lesion.mean[l]
		}
	}

	ds := dataset.New(d, n)
	gt := &GroundTruth{
		Labels:   make([]int, 0, n),
		Relevant: make([][]bool, 2),
	}
	allAxes := make([]bool, d)
	for j := range allAxes {
		allAxes[j] = true
	}
	gt.Relevant[0] = allAxes
	gt.Relevant[1] = allAxes

	z := make([]float64, ld)
	emit := func(pat pattern, broad bool, label int) {
		for l := range z {
			if broad {
				z[l] = -1 + 2*rng.Float64()
			} else {
				z[l] = pat.mean[l] + pat.sd*rng.NormFloat64()
			}
		}
		p := make([]float64, d)
		for j := 0; j < d; j++ {
			v := 0.0
			for l := 0; l < ld; l++ {
				v += loading[j][l] * z[l]
			}
			p[j] = v + 0.02*rng.NormFloat64()
		}
		ds.Append(p)
		gt.Labels = append(gt.Labels, label)
	}
	background := normalN / 5
	for i := 0; i < normalN; i++ {
		if i < background {
			emit(pattern{}, true, 0)
		} else {
			emit(patterns[rng.Intn(len(patterns))], false, 0)
		}
	}
	for i := 0; i < malignantN; i++ {
		emit(lesion, false, 1)
	}

	shuffle(rng, ds, gt)
	if _, _, err := ds.Normalize(); err != nil {
		return nil, nil, err
	}
	contiguous(ds)
	return ds, gt, nil
}
