package numeric

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64. It is deliberately small:
// the library only needs it for normal-equation solves (polynomial fits)
// and for the orthogonal matching pursuit decoder in the compressed-sensing
// substrate.
type Matrix struct {
	Rows, Cols int
	data       []float64
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("numeric: NewMatrix(%d, %d): negative dimension", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.data, m.data)
	return c
}

// MulVec computes m·x for a vector x of length Cols.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("numeric: MulVec: len(x)=%d, want %d", len(x), m.Cols))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// TMulVec computes mᵀ·x for a vector x of length Rows.
func (m *Matrix) TMulVec(x []float64) []float64 {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("numeric: TMulVec: len(x)=%d, want %d", len(x), m.Rows))
	}
	y := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			y[j] += v * xi
		}
	}
	return y
}

// Solve solves m·x = b in place of a copy using Gaussian elimination with
// partial pivoting. m must be square. It returns ErrSingular when a pivot
// underflows.
func (m *Matrix) Solve(b []float64) ([]float64, error) {
	n := m.Rows
	if m.Cols != n {
		return nil, fmt.Errorf("numeric: Solve: matrix is %dx%d, want square", m.Rows, m.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("numeric: Solve: len(b)=%d, want %d", len(b), n)
	}
	a := m.Clone()
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot: find the row with the largest magnitude in
		// this column at or below the diagonal.
		pivot := col
		best := math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-300 {
			return nil, ErrSingular
		}
		if pivot != col {
			pr, cr := a.Row(pivot), a.Row(col)
			for j := range pr {
				pr[j], cr[j] = cr[j], pr[j]
			}
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / a.At(col, col)
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) * inv
			if f == 0 {
				continue
			}
			rr, cr := a.Row(r), a.Row(col)
			for j := col; j < n; j++ {
				rr[j] -= f * cr[j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := a.Row(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("numeric: Dot: len %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }
