// Package matrix provides dense row-major float64 matrices and the block
// manipulation primitives the SUMMA-family algorithms are built on: strided
// views, block extraction/insertion, and deterministic generators used by
// tests and experiments.
//
// A Dense value owns (or aliases) a []float64 backing slice with an explicit
// leading dimension (Stride), so sub-matrix views share storage with their
// parent exactly like BLAS/LAPACK leading-dimension conventions. All
// SUMMA-family pivot row/column extraction is expressed through these views.
package matrix

import (
	"errors"
	"fmt"
	"math"
)

// Dense is a dense row-major matrix of float64 values. Element (i,j) lives at
// Data[i*Stride+j]. A Dense may be a view into a larger matrix, in which case
// Stride exceeds Cols and Data aliases the parent's backing array.
type Dense struct {
	Rows   int
	Cols   int
	Stride int
	Data   []float64
}

// ErrShape reports incompatible matrix dimensions.
var ErrShape = errors.New("matrix: incompatible shapes")

// New allocates a zeroed r×c matrix with a tight stride.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// FromSlice wraps an existing backing slice as an r×c matrix with a tight
// stride. The slice is aliased, not copied; len(data) must be at least r*c.
func FromSlice(r, c int, data []float64) *Dense {
	if len(data) < r*c {
		panic(fmt.Sprintf("matrix: slice of len %d cannot hold %dx%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Stride: c, Data: data[:r*c]}
}

// At returns element (i,j).
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.Data[i*m.Stride+j]
}

// Set assigns element (i,j).
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.Data[i*m.Stride+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// IsView reports whether the matrix aliases a larger backing array (its
// stride is wider than its column count).
func (m *Dense) IsView() bool { return m.Stride != m.Cols }

// View returns an r×c sub-matrix view rooted at (i,j). The view shares
// storage with m: writes through the view are visible in m. A view of a
// shape-only matrix (nil Data, as produced by virtual transports that elide
// element storage) is itself shape-only.
func (m *Dense) View(i, j, r, c int) *Dense {
	v := m.Window(i, j, r, c)
	return &v
}

// Window is View by value: a caller that keeps the header in its own frame
// takes a view without allocating one.
func (m *Dense) Window(i, j, r, c int) Dense {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("matrix: view (%d,%d,%d,%d) out of range %dx%d", i, j, r, c, m.Rows, m.Cols))
	}
	if r == 0 || c == 0 || m.Data == nil {
		return Dense{Rows: r, Cols: c, Stride: m.Stride, Data: nil}
	}
	off := i*m.Stride + j
	return Dense{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[off : off+(r-1)*m.Stride+c]}
}

// Clone returns a tightly packed deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.Rows, m.Cols)
	out.CopyFrom(m)
	return out
}

// CopyFrom copies src into m; shapes must match. Views are handled row by
// row so strides may differ.
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("matrix: copy %dx%d <- %dx%d: %v", m.Rows, m.Cols, src.Rows, src.Cols, ErrShape))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Data[i*m.Stride:i*m.Stride+m.Cols], src.Data[i*src.Stride:i*src.Stride+src.Cols])
	}
}

// Pack serialises the matrix (view or not) into a tight row-major slice,
// appending to dst. It returns the extended slice. Pack is how blocks are
// marshalled onto the wire by the message-passing layer.
func (m *Dense) Pack(dst []float64) []float64 {
	for i := 0; i < m.Rows; i++ {
		dst = append(dst, m.Data[i*m.Stride:i*m.Stride+m.Cols]...)
	}
	return dst
}

// Unpack fills the matrix from a tight row-major slice produced by Pack.
// It returns the number of elements consumed.
func (m *Dense) Unpack(src []float64) int {
	need := m.Rows * m.Cols
	if len(src) < need {
		panic(fmt.Sprintf("matrix: unpack needs %d elements, have %d", need, len(src)))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Data[i*m.Stride:i*m.Stride+m.Cols], src[i*m.Cols:(i+1)*m.Cols])
	}
	return need
}

// Zero sets every element to zero, respecting views.
func (m *Dense) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] = 0
		}
	}
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] = v
		}
	}
}

// Add accumulates src into m element-wise.
func (m *Dense) Add(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(ErrShape)
	}
	for i := 0; i < m.Rows; i++ {
		dst := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		s := src.Data[i*src.Stride : i*src.Stride+src.Cols]
		for j := range dst {
			dst[j] += s[j]
		}
	}
}

// Scale multiplies every element by alpha.
func (m *Dense) Scale(alpha float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] *= alpha
		}
	}
}

// Transpose returns a new tightly packed transpose of m.
func (m *Dense) Transpose() *Dense {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Stride+i] = m.Data[i*m.Stride+j]
		}
	}
	return out
}

// Equal reports exact element-wise equality of shape and values.
func Equal(a, b *Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.Data[i*a.Stride+j] != b.Data[i*b.Stride+j] {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the max-norm of (a-b). It panics on shape mismatch.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(ErrShape)
	}
	max := 0.0
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			d := math.Abs(a.Data[i*a.Stride+j] - b.Data[i*b.Stride+j])
			if d > max {
				max = d
			}
		}
	}
	return max
}

// FrobeniusNorm returns sqrt(sum of squares of elements).
func (m *Dense) FrobeniusNorm() float64 {
	sum := 0.0
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for _, v := range row {
			sum += v * v
		}
	}
	return math.Sqrt(sum)
}

// String renders small matrices for debugging; large matrices are summarised.
func (m *Dense) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Dense(%dx%d, stride=%d, fro=%.4g)", m.Rows, m.Cols, m.Stride, m.FrobeniusNorm())
	}
	s := fmt.Sprintf("Dense(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
