// Package dataset provides the in-memory representation of a
// multi-dimensional dataset (Definition 1 of the MrCC paper), together
// with normalization, validation and (de)serialization helpers.
//
// A dataset is a set of η points in a d-dimensional space. MrCC assumes
// every attribute value lies in [0, 1), so the whole dataset is embedded
// in the unit hyper-cube [0,1)^d; Normalize rescales arbitrary real data
// into that cube.
package dataset

import (
	"errors"
	"fmt"
	"math"
)

// Dataset holds η points of dimensionality d in row-major order.
// Points[i] is the i-th point; len(Points[i]) == Dims for all i.
//
// The zero value is an empty dataset ready for appending.
type Dataset struct {
	// Dims is the dimensionality d of the embedding space.
	Dims int
	// Points holds the η data points.
	Points [][]float64
	// Names optionally labels each axis; nil or length Dims.
	Names []string
}

// New returns an empty dataset of dimensionality d with capacity for n
// points. It panics if d < 1.
func New(d, n int) *Dataset {
	if d < 1 {
		panic(fmt.Sprintf("dataset: dimensionality must be >= 1, got %d", d))
	}
	return &Dataset{Dims: d, Points: make([][]float64, 0, n)}
}

// FromRows builds a dataset from the given rows, which must all share the
// same non-zero length. The rows are used directly (not copied).
func FromRows(rows [][]float64) (*Dataset, error) {
	if len(rows) == 0 {
		return nil, errors.New("dataset: no rows")
	}
	d := len(rows[0])
	if d == 0 {
		return nil, errors.New("dataset: zero-dimensional rows")
	}
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("dataset: row %d has %d values, want %d", i, len(r), d)
		}
	}
	return &Dataset{Dims: d, Points: rows}, nil
}

// Len returns η, the number of points.
func (ds *Dataset) Len() int { return len(ds.Points) }

// Append adds a point. It panics if the point has the wrong dimensionality.
func (ds *Dataset) Append(p []float64) {
	if len(p) != ds.Dims {
		panic(fmt.Sprintf("dataset: point has %d values, want %d", len(p), ds.Dims))
	}
	ds.Points = append(ds.Points, p)
}

// Clone returns a deep copy of the dataset.
func (ds *Dataset) Clone() *Dataset {
	out := &Dataset{Dims: ds.Dims, Points: make([][]float64, len(ds.Points))}
	if ds.Names != nil {
		out.Names = append([]string(nil), ds.Names...)
	}
	backing := make([]float64, len(ds.Points)*ds.Dims)
	for i, p := range ds.Points {
		row := backing[i*ds.Dims : (i+1)*ds.Dims]
		copy(row, p)
		out.Points[i] = row
	}
	return out
}

// Validate checks that every value is a finite number and that every row
// has dimensionality Dims. It returns the first problem found.
func (ds *Dataset) Validate() error {
	_, err := ds.Check()
	return err
}

// f64OneBits is the bit pattern of 1.0: a float lies in [+0, 1)
// exactly when its bits are below this (NaNs, infinities, negatives
// and values >= 1 all compare higher); f64NegZeroBits is -0.0's.
const (
	f64OneBits     = 0x3FF0000000000000
	f64NegZeroBits = 1 << 63
)

// Check is Validate and IsNormalized in one read of the points: it
// returns Validate's first problem, and otherwise whether every value
// lies in [0, 1). A value in [0, 1) costs one comparison of its bits.
func (ds *Dataset) Check() (normalized bool, err error) {
	if ds.Dims < 1 {
		return false, errors.New("dataset: dimensionality must be >= 1")
	}
	normalized = true
	for i, p := range ds.Points {
		if len(p) != ds.Dims {
			return false, fmt.Errorf("dataset: point %d has %d values, want %d", i, len(p), ds.Dims)
		}
		for j, v := range p {
			if b := math.Float64bits(v); b < f64OneBits || b == f64NegZeroBits {
				continue
			}
			if math.IsNaN(v) {
				return false, fmt.Errorf("dataset: point %d axis %d is NaN", i, j)
			}
			if math.IsInf(v, 0) {
				return false, fmt.Errorf("dataset: point %d axis %d is infinite", i, j)
			}
			normalized = false
		}
	}
	return normalized, nil
}

// Bounds returns per-axis minima and maxima. It returns an error when the
// dataset is empty.
func (ds *Dataset) Bounds() (min, max []float64, err error) {
	if ds.Len() == 0 {
		return nil, nil, errors.New("dataset: empty")
	}
	min = append([]float64(nil), ds.Points[0]...)
	max = append([]float64(nil), ds.Points[0]...)
	for _, p := range ds.Points[1:] {
		for j, v := range p {
			if v < min[j] {
				min[j] = v
			}
			if v > max[j] {
				max[j] = v
			}
		}
	}
	return min, max, nil
}

// normEps keeps normalized values strictly below 1 so they land in [0,1)
// as Definition 1 requires: the maximum of an axis maps to 1-normEps.
const normEps = 1e-9

// Normalize rescales the dataset in place so every value lies in [0, 1).
// Constant axes map to 0. It returns the affine transform used
// (scaled = (v - offset[j]) * scale[j]) so callers can map cluster bounds
// back to the original units.
func (ds *Dataset) Normalize() (offset, scale []float64, err error) {
	min, max, err := ds.Bounds()
	if err != nil {
		return nil, nil, err
	}
	offset = min
	scale = make([]float64, ds.Dims)
	for j := range scale {
		span := max[j] - min[j]
		if span <= 0 {
			scale[j] = 0 // constant axis: everything maps to 0
			continue
		}
		scale[j] = (1 - normEps) / span
	}
	for _, p := range ds.Points {
		for j := range p {
			p[j] = (p[j] - offset[j]) * scale[j]
		}
	}
	return offset, scale, nil
}

// IsNormalized reports whether every value already lies in [0, 1).
func (ds *Dataset) IsNormalized() bool {
	for _, p := range ds.Points {
		for _, v := range p {
			if v < 0 || v >= 1 || math.IsNaN(v) {
				return false
			}
		}
	}
	return true
}
