package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// mulVec returns m · v.
func mulVec(m *Matrix, v []float64) []float64 {
	out := make([]float64, m.Rows)
	m.MulVecInto(out, v)
	return out
}

// transpose returns the transposed matrix.
func transpose(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// dot returns the inner product of two equal-length vectors.
func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// norm2 returns the Euclidean norm of v.
func norm2(v []float64) float64 { return math.Sqrt(dot(v, v)) }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	if m.At(0, 1) != 5 || m.At(1, 2) != 0 {
		t.Error("Set/At broken")
	}
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(3)[%d][%d] = %g", i, j, id.At(i, j))
			}
		}
	}
}

func TestMulAgainstHand(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(3, 2)
	vals := []float64{1, 2, 3, 4, 5, 6}
	copy(a.Data, vals)
	copy(b.Data, vals)
	c := a.Mul(b)
	// [1 2 3; 4 5 6] * [1 2; 3 4; 5 6] = [22 28; 49 64]
	want := []float64{22, 28, 49, 64}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("Mul result %v, want %v", c.Data, want)
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected shape panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMatrix(4, 4)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	v := []float64{1, -2, 0.5, 3}
	dst := make([]float64, 4)
	m.MulVecInto(dst, v)
	for i := range dst {
		want := 0.0
		for j := range v {
			want += m.At(i, j) * v[j]
		}
		if !almostEq(dst[i], want, 1e-12) {
			t.Fatalf("row %d: MulVecInto=%g want %g", i, dst[i], want)
		}
	}
}

func TestGivensRotationIsOrthonormal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(10)
		p := rng.Intn(d - 1)
		q := p + 1 + rng.Intn(d-p-1)
		theta := rng.Float64() * 2 * math.Pi
		g := GivensRotation(d, p, q, theta)
		gt := transpose(g)
		prod := g.Mul(gt)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if !almostEq(prod.At(i, j), want, 1e-12) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGivensRotationPreservesNorm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(8)
		g := GivensRotation(d, 0, d-1, rng.Float64()*math.Pi)
		v := make([]float64, d)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return almostEq(norm2(mulVec(g, v)), norm2(v), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGivensRotationPanicsOnBadPlane(t *testing.T) {
	for _, c := range [][3]int{{3, 2, 1}, {3, -1, 2}, {3, 1, 3}, {3, 1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("plane (%d,%d) in d=%d should panic", c[1], c[2], c[0])
				}
			}()
			GivensRotation(c[0], c[1], c[2], 0.5)
		}()
	}
}

func TestJacobiDiagonalizesKnownMatrix(t *testing.T) {
	// Symmetric matrix with known eigenvalues 3 and 1:
	// [2 1; 1 2] -> eigvals {3, 1}.
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{2, 1, 1, 2})
	vals, vecs := Jacobi(a)
	got := append([]float64(nil), vals...)
	if got[0] > got[1] {
		got[0], got[1] = got[1], got[0]
	}
	if !almostEq(got[0], 1, 1e-9) || !almostEq(got[1], 3, 1e-9) {
		t.Fatalf("eigenvalues %v, want {1, 3}", vals)
	}
	// Check A·v = λ·v column by column.
	for c := 0; c < 2; c++ {
		v := []float64{vecs.At(0, c), vecs.At(1, c)}
		av := mulVec(a, v)
		for i := range v {
			if !almostEq(av[i], vals[c]*v[i], 1e-9) {
				t.Fatalf("column %d is not an eigenvector", c)
			}
		}
	}
}

func TestJacobiRandomSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		d := 2 + rng.Intn(8)
		a := NewMatrix(d, d)
		for i := 0; i < d; i++ {
			for j := i; j < d; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs := Jacobi(a)
		// Reconstruct A = V diag(vals) V^T and compare.
		diag := NewMatrix(d, d)
		for i := 0; i < d; i++ {
			diag.Set(i, i, vals[i])
		}
		recon := vecs.Mul(diag).Mul(transpose(vecs))
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				if !almostEq(recon.At(i, j), a.At(i, j), 1e-8) {
					t.Fatalf("trial %d: reconstruction differs at (%d,%d): %g vs %g",
						trial, i, j, recon.At(i, j), a.At(i, j))
				}
			}
		}
	}
}

func TestCovarianceAndPCA(t *testing.T) {
	// Points along the direction (1,1) with tiny residuals: the first
	// principal component must align with (1,1)/√2.
	rng := rand.New(rand.NewSource(5))
	rows := make([][]float64, 500)
	for i := range rows {
		base := rng.NormFloat64()
		rows[i] = []float64{base + 0.01*rng.NormFloat64(), base + 0.01*rng.NormFloat64()}
	}
	vals, comps := PCA(rows)
	if vals[0] < vals[1] {
		t.Fatal("PCA eigenvalues not sorted descending")
	}
	dir := []float64{comps.At(0, 0), comps.At(1, 0)}
	cosine := math.Abs(dot(dir, []float64{1, 1}) / (norm2(dir) * math.Sqrt2))
	if cosine < 0.999 {
		t.Errorf("first PC misaligned: |cos| = %g", cosine)
	}
	if vals[0]/vals[1] < 100 {
		t.Errorf("variance ratio %g too small for a line", vals[0]/vals[1])
	}
}

func TestCovariancePanicsOnTooFewRows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Covariance([][]float64{{1, 2}})
}
