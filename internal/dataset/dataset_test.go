package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromRowsValidation(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("empty rows accepted")
	}
	if _, err := FromRows([][]float64{{}}); err == nil {
		t.Error("zero-dimensional rows accepted")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows accepted")
	}
	ds, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dims != 2 || ds.Len() != 2 {
		t.Errorf("got d=%d n=%d", ds.Dims, ds.Len())
	}
}

func TestAppendPanicsOnWrongDims(t *testing.T) {
	ds := New(3, 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong dimensionality")
		}
	}()
	ds.Append([]float64{1, 2})
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for d=0")
		}
	}()
	New(0, 10)
}

func TestValidateCatchesNaNAndInf(t *testing.T) {
	ds, _ := FromRows([][]float64{{1, 2}, {math.NaN(), 4}})
	if err := ds.Validate(); err == nil {
		t.Error("NaN not caught")
	}
	ds2, _ := FromRows([][]float64{{1, math.Inf(1)}})
	if err := ds2.Validate(); err == nil {
		t.Error("Inf not caught")
	}
	ds3, _ := FromRows([][]float64{{1, 2}})
	if err := ds3.Validate(); err != nil {
		t.Errorf("clean data rejected: %v", err)
	}
	ds3.Points[0] = []float64{1}
	if err := ds3.Validate(); err == nil {
		t.Error("ragged row not caught")
	}
}

func TestNormalizeMapsIntoUnitCube(t *testing.T) {
	ds, _ := FromRows([][]float64{{-5, 100}, {5, 200}, {0, 150}})
	offset, scale, err := ds.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !ds.IsNormalized() {
		t.Fatal("not normalized")
	}
	// Round-trip through Denormalize.
	if got := Denormalize(ds.Points[0][0], offset, scale, 0); math.Abs(got-(-5)) > 1e-9 {
		t.Errorf("round trip = %g, want -5", got)
	}
	if got := Denormalize(ds.Points[1][1], offset, scale, 1); math.Abs(got-200) > 1e-9 {
		t.Errorf("round trip = %g, want 200", got)
	}
}

func TestNormalizeConstantAxis(t *testing.T) {
	ds, _ := FromRows([][]float64{{7, 1}, {7, 2}})
	_, scale, err := ds.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if scale[0] != 0 {
		t.Errorf("constant axis scale = %g, want 0", scale[0])
	}
	if ds.Points[0][0] != 0 || ds.Points[1][0] != 0 {
		t.Error("constant axis should map to 0")
	}
	if !ds.IsNormalized() {
		t.Error("dataset with constant axis not normalized")
	}
}

func TestNormalizeEmptyDataset(t *testing.T) {
	ds := New(2, 0)
	if _, _, err := ds.Normalize(); err == nil {
		t.Error("empty dataset normalize should fail")
	}
	if _, _, err := ds.Bounds(); err == nil {
		t.Error("empty dataset bounds should fail")
	}
}

func TestNormalizeProperty(t *testing.T) {
	// Property: after normalizing random data every value is in [0,1)
	// and the per-axis order of points is preserved.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		d := 1 + rng.Intn(6)
		ds := New(d, n)
		for i := 0; i < n; i++ {
			p := make([]float64, d)
			for j := range p {
				p[j] = (rng.Float64() - 0.5) * 2000
			}
			ds.Append(p)
		}
		orig := ds.Clone()
		if _, _, err := ds.Normalize(); err != nil {
			return false
		}
		if !ds.IsNormalized() {
			return false
		}
		for j := 0; j < d; j++ {
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if (orig.Points[a][j] < orig.Points[b][j]) != (ds.Points[a][j] < ds.Points[b][j]) &&
						orig.Points[a][j] != orig.Points[b][j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	ds, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	ds.Names = []string{"a", "b"}
	cp := ds.Clone()
	cp.Points[0][0] = 99
	cp.Names[0] = "z"
	if ds.Points[0][0] != 1 || ds.Names[0] != "a" {
		t.Error("Clone shares storage with the original")
	}
}

func TestIsNormalizedEdges(t *testing.T) {
	ok, _ := FromRows([][]float64{{0, 0.999999}})
	if !ok.IsNormalized() {
		t.Error("[0, 0.999999] should be normalized")
	}
	bad1, _ := FromRows([][]float64{{1.0, 0.5}})
	if bad1.IsNormalized() {
		t.Error("value 1.0 is outside [0,1)")
	}
	bad2, _ := FromRows([][]float64{{-0.001, 0.5}})
	if bad2.IsNormalized() {
		t.Error("negative value accepted")
	}
}

// validateRef is the two-read check Check replaced: the row length,
// then NaN, then ±Inf, point by point and axis by axis.
func validateRef(ds *Dataset) error {
	if ds.Dims < 1 {
		return errors.New("dataset: dimensionality must be >= 1")
	}
	for i, p := range ds.Points {
		if len(p) != ds.Dims {
			return fmt.Errorf("dataset: point %d has %d values, want %d", i, len(p), ds.Dims)
		}
		for j, v := range p {
			if math.IsNaN(v) {
				return fmt.Errorf("dataset: point %d axis %d is NaN", i, j)
			}
			if math.IsInf(v, 0) {
				return fmt.Errorf("dataset: point %d axis %d is infinite", i, j)
			}
		}
	}
	return nil
}

// TestCheckIsValidateAndIsNormalized pins Check to the two reads it
// replaces (validateRef, then IsNormalized): the same first problem,
// word for word, and otherwise the same normalized verdict, over every value class the bit comparison
// must sort (±0, the largest float below 1, 1, negatives, values past
// 1, NaN, ±Inf) and problems in every order.
func TestCheckIsValidateAndIsNormalized(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []*Dataset{
		{Dims: 0},
		{Dims: 2},
		{Dims: 2, Points: [][]float64{{0, math.Copysign(0, -1)}, {math.Nextafter(1, 0), 0.5}}},
		{Dims: 2, Points: [][]float64{{0.5, 1}}},
		{Dims: 2, Points: [][]float64{{-1e-300, 0.5}}},
		{Dims: 2, Points: [][]float64{{0.5, 7}, {3, -2}}},
		{Dims: 2, Points: [][]float64{{0.5, 7}, {nan, 0.1}}},
		{Dims: 2, Points: [][]float64{{2, inf}, {nan, 0.1}}},
		{Dims: 2, Points: [][]float64{{0.1, math.Inf(-1)}}},
		{Dims: 2, Points: [][]float64{{0.1, 0.2}, {0.3}, {nan, nan}}},
		{Dims: 2, Points: [][]float64{{nan, 0.2}, {0.3}}},
		{Dims: 3, Points: [][]float64{{0.1, 0.2, 5}, {0.3, 0.4, 0.5, 0.6}}},
	}
	for i, ds := range cases {
		unit, err := ds.Check()
		verr := validateRef(ds)
		if (err == nil) != (verr == nil) || (err != nil && err.Error() != verr.Error()) {
			t.Fatalf("case %d: Check error %v, Validate error %v", i, err, verr)
		}
		if err == nil && unit != ds.IsNormalized() {
			t.Fatalf("case %d: Check says normalized=%v, IsNormalized %v", i, unit, ds.IsNormalized())
		}
	}
}
