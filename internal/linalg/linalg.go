// Package linalg implements the small dense linear-algebra kernels the
// reproduction needs: vectors, square matrices, Givens plane rotations
// (used to rotate datasets for the *_r experiment group), a Jacobi
// eigenvalue solver and PCA (used for analysis and by baseline methods).
//
// The package deliberately stays tiny and allocation-conscious; it is not
// a general linear-algebra library.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major square or rectangular matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Mul returns m · other. It panics on shape mismatch.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("linalg: cannot multiply %dx%d by %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			row := out.Data[i*out.Cols : (i+1)*out.Cols]
			orow := other.Data[k*other.Cols : (k+1)*other.Cols]
			for j := range row {
				row[j] += a * orow[j]
			}
		}
	}
	return out
}

// MulVecInto computes m · v into dst (length m.Rows), avoiding allocation.
func (m *Matrix) MulVecInto(dst, v []float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, rv := range row {
			s += rv * v[j]
		}
		dst[i] = s
	}
}

// GivensRotation returns the d×d rotation matrix rotating the (p, q)
// coordinate plane by theta radians. It panics unless 0 <= p < q < d.
func GivensRotation(d, p, q int, theta float64) *Matrix {
	if p < 0 || q <= p || q >= d {
		panic(fmt.Sprintf("linalg: invalid plane (%d,%d) for dimension %d", p, q, d))
	}
	m := Identity(d)
	c, s := math.Cos(theta), math.Sin(theta)
	m.Set(p, p, c)
	m.Set(q, q, c)
	m.Set(p, q, -s)
	m.Set(q, p, s)
	return m
}

// Jacobi computes the eigen-decomposition of a symmetric n×n matrix using
// cyclic Jacobi rotations. It returns the eigenvalues (unsorted) and a
// matrix whose columns are the corresponding eigenvectors. The input is
// not modified. maxSweeps bounds the iteration; 50 is plenty for the
// dimensionalities this project uses.
func Jacobi(a *Matrix) (eigvals []float64, eigvecs *Matrix) {
	if a.Rows != a.Cols {
		panic("linalg: Jacobi needs a square matrix")
	}
	n := a.Rows
	s := a.Clone()
	v := Identity(n)
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += s.At(i, j) * s.At(i, j)
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := s.At(p, q)
				if math.Abs(apq) < 1e-18 {
					continue
				}
				app, aqq := s.At(p, p), s.At(q, q)
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				sn := t * c
				// Apply the rotation J(p,q,theta)^T · S · J(p,q,theta).
				for k := 0; k < n; k++ {
					skp, skq := s.At(k, p), s.At(k, q)
					s.Set(k, p, c*skp-sn*skq)
					s.Set(k, q, sn*skp+c*skq)
				}
				for k := 0; k < n; k++ {
					spk, sqk := s.At(p, k), s.At(q, k)
					s.Set(p, k, c*spk-sn*sqk)
					s.Set(q, k, sn*spk+c*sqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-sn*vkq)
					v.Set(k, q, sn*vkp+c*vkq)
				}
			}
		}
	}
	eigvals = make([]float64, n)
	for i := 0; i < n; i++ {
		eigvals[i] = s.At(i, i)
	}
	return eigvals, v
}

// Covariance returns the d×d sample covariance matrix of the rows.
// It panics when fewer than two rows are supplied.
func Covariance(rows [][]float64) *Matrix {
	n := len(rows)
	if n < 2 {
		panic("linalg: covariance needs at least two rows")
	}
	d := len(rows[0])
	mean := make([]float64, d)
	for _, r := range rows {
		for j, v := range r {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	cov := NewMatrix(d, d)
	for _, r := range rows {
		for i := 0; i < d; i++ {
			di := r[i] - mean[i]
			if di == 0 {
				continue
			}
			for j := i; j < d; j++ {
				cov.Data[i*d+j] += di * (r[j] - mean[j])
			}
		}
	}
	inv := 1 / float64(n-1)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov.Data[i*d+j] *= inv
			cov.Data[j*d+i] = cov.Data[i*d+j]
		}
	}
	return cov
}

// PCA returns the eigenvalues and eigenvectors of the covariance of rows,
// sorted by decreasing eigenvalue. Column k of the returned matrix is the
// k-th principal direction.
func PCA(rows [][]float64) (eigvals []float64, components *Matrix) {
	cov := Covariance(rows)
	vals, vecs := Jacobi(cov)
	n := len(vals)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort by decreasing eigenvalue; n is small (<= ~30).
	for i := 1; i < n; i++ {
		for k := i; k > 0 && vals[idx[k]] > vals[idx[k-1]]; k-- {
			idx[k], idx[k-1] = idx[k-1], idx[k]
		}
	}
	sorted := make([]float64, n)
	comp := NewMatrix(n, n)
	for newCol, oldCol := range idx {
		sorted[newCol] = vals[oldCol]
		for r := 0; r < n; r++ {
			comp.Set(r, newCol, vecs.At(r, oldCol))
		}
	}
	return sorted, comp
}
