package vec

import "fmt"

// Matrix is a dense row-major matrix. Rows are Vectors sharing one backing
// array, so a Matrix of r×c floats costs a single allocation.
type Matrix struct {
	Rows, Cols int
	data       []float64
}

// NewMatrix allocates a zero r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("vec: negative matrix dimension")
	}
	return &Matrix{Rows: r, Cols: c, data: make([]float64, r*c)}
}

// Row returns row i as a Vector aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector {
	return Vector(m.data[i*m.Cols : (i+1)*m.Cols])
}

// At returns m[i][j].
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.Cols+j] }

// Set assigns m[i][j] = x.
func (m *Matrix) Set(i, j int, x float64) { m.data[i*m.Cols+j] = x }

// MulVecInto computes m·x into dst (length m.Rows), without a
// per-call allocation — the difference matters when rotating every point of
// a large cluster.
func (m *Matrix) MulVecInto(dst, x Vector) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("vec: MulVecInto dimensions %d→%d, want %d→%d", len(x), len(dst), m.Cols, m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, xj := range x {
			s += row[j] * xj
		}
		dst[i] = s
	}
}

// TMulVec returns mᵀ·x (dimension m.Cols). Used to map a rotated point back
// to the original coordinates when the rows of m are an orthonormal basis.
func (m *Matrix) TMulVec(x Vector) Vector {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("vec: TMulVec dimension mismatch %d vs %d", len(x), m.Rows))
	}
	out := make(Vector, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.data[i*m.Cols : (i+1)*m.Cols]
		xi := x[i]
		for j := range row {
			out[j] += row[j] * xi
		}
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.data, m.data)
	return out
}

// GramSchmidt orthonormalizes the rows of m in place using modified
// Gram–Schmidt with re-orthogonalization, returning an error if the rows are
// (numerically) linearly dependent. On success the rows form an orthonormal
// set: ⟨rᵢ, rⱼ⟩ = δᵢⱼ up to floating-point error.
func (m *Matrix) GramSchmidt() error {
	const tiny = 1e-12
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		// Two passes of projection removal for numerical stability
		// ("twice is enough" re-orthogonalization).
		for pass := 0; pass < 2; pass++ {
			for j := 0; j < i; j++ {
				rj := m.Row(j)
				c := ri.Dot(rj)
				for k := range ri {
					ri[k] -= c * rj[k]
				}
			}
		}
		n := ri.Norm()
		if n < tiny {
			return fmt.Errorf("vec: GramSchmidt: row %d is linearly dependent", i)
		}
		ri.ScaleInPlace(1 / n)
	}
	return nil
}
