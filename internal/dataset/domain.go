package dataset

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// normEps keeps normalized values strictly below 1 so they land in [0,1)
// as Definition 1 requires: the maximum of an axis maps to 1-normEps.
const normEps = 1e-9

// unitScale is the factor that maps an offset from lo into
// [0, 1-normEps] on the interval [lo, hi].
func unitScale(lo, hi float64) float64 { return (1 - normEps) / (hi - lo) }

// Domain is a declared per-axis value domain, [min[j], max[j]] on axis
// j, and its embedding into [0,1)^d: v ↦ (v − min[j])·(1−ε)/(max[j] −
// min[j]), the map Normalize applies to a dataset's own bounds. The
// streaming service and the sharded build declare the domain up front,
// so a point lands in the same cell whatever data came before it.
type Domain struct {
	min, max, scale []float64
}

// NewDomain checks a declared domain and returns its embedding. Every
// bound must be finite and max[j] must exceed min[j]. The width
// max[j] − min[j] and the scale must be finite too: a width that
// overflows maps every value to 0, and a width so small that its scale
// overflows maps the domain's edges to NaN (0·Inf). The error names the
// first axis that fails.
func NewDomain(min, max []float64) (*Domain, error) {
	if len(min) != len(max) {
		return nil, fmt.Errorf("domain has %d mins and %d maxs", len(min), len(max))
	}
	scale := make([]float64, len(min))
	for j, lo := range min {
		hi := max[j]
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			return nil, fmt.Errorf("axis %d domain [%g, %g] is not finite", j, lo, hi)
		}
		if !(hi > lo) {
			return nil, fmt.Errorf("axis %d domain [%g, %g] is empty", j, lo, hi)
		}
		if scale[j] = unitScale(lo, hi); math.IsInf(hi-lo, 0) || math.IsInf(scale[j], 0) {
			return nil, fmt.Errorf("axis %d domain [%g, %g] has a width or scale that is not finite", j, lo, hi)
		}
	}
	return &Domain{min: min, max: max, scale: scale}, nil
}

// Embed writes the embedding of p, a point in domain units, into out,
// which may be p itself. It refuses a value that is not finite or lies
// outside the domain, and allocates nothing unless it refuses.
func (dm *Domain) Embed(out, p []float64) error {
	for j, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("axis %d value is not finite", j)
		}
		if v < dm.min[j] || v > dm.max[j] {
			return fmt.Errorf("axis %d value %g outside the declared domain [%g, %g]", j, v, dm.min[j], dm.max[j])
		}
		out[j] = (v - dm.min[j]) * dm.scale[j]
	}
	return nil
}

// ParseDomain reads a declared domain of dims axes, "min:max" for each
// axis, comma-separated, or one "min:max" for every axis, and checks it
// as NewDomain does. An empty spec declares none: nil bounds.
func ParseDomain(spec string, dims int) (min, max []float64, err error) {
	if spec == "" {
		return nil, nil, nil
	}
	pairs := strings.Split(spec, ",")
	if len(pairs) == 1 && dims > 1 {
		one := pairs[0]
		pairs = make([]string, dims)
		for j := range pairs {
			pairs[j] = one
		}
	}
	if len(pairs) != dims {
		return nil, nil, fmt.Errorf("%d axis bounds, want 1 or %d", len(pairs), dims)
	}
	min = make([]float64, dims)
	max = make([]float64, dims)
	for j, pair := range pairs {
		lo, hi, ok := strings.Cut(strings.TrimSpace(pair), ":")
		if !ok {
			return nil, nil, fmt.Errorf("axis %d: %q is not min:max", j, pair)
		}
		if min[j], err = strconv.ParseFloat(lo, 64); err != nil {
			return nil, nil, fmt.Errorf("axis %d min: %v", j, err)
		}
		if max[j], err = strconv.ParseFloat(hi, 64); err != nil {
			return nil, nil, fmt.Errorf("axis %d max: %v", j, err)
		}
	}
	if _, err := NewDomain(min, max); err != nil {
		return nil, nil, err
	}
	return min, max, nil
}
