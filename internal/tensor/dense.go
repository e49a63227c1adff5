// Package tensor provides the dense and sparse tensor types used throughout
// the EmbRace reproduction.
//
// Dense tensors are flat float32 buffers with an explicit shape, mirroring the
// contiguous multi-dimensional arrays most DNN parameters are stored as.
// Sparse tensors use a row-oriented COO layout (index list plus a value row
// per index), which is the natural representation of embedding gradients:
// only the rows touched by a batch are present (see paper §2.1).
package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// BytesPerElem is the size of one tensor element. The whole reproduction uses
// float32 everywhere, as the paper's PyTorch models do.
const BytesPerElem = 4

// Dense is a contiguous float32 tensor with an explicit shape.
//
// The zero value is an empty tensor. All arithmetic helpers operate in place
// on the receiver unless documented otherwise, so callers control allocation.
type Dense struct {
	shape []int
	data  []float32
}

// NewDense allocates a zeroed dense tensor with the given shape.
// It panics if any dimension is negative.
func NewDense(shape ...int) *Dense {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Dense{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a dense tensor of the given shape. The slice is
// used directly, not copied. It returns an error if a dimension is negative,
// the element count overflows an int, or it does not match len(data). Wire
// and checkpoint decoders build tensors through it, so the shape may be
// hostile; the errors name the shape's length, never the shape itself.
func FromSlice(data []float32, shape ...int) (*Dense, error) {
	n := 1
	for i, d := range shape {
		if d < 0 || d != 0 && n > math.MaxInt/d {
			return nil, fmt.Errorf("tensor: dimension %d of %d (%d) is negative or overflows the element count", i, len(shape), d)
		}
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("tensor: %d-dimension shape wants %d elements, got %d", len(shape), n, len(data))
	}
	return &Dense{shape: append([]int(nil), shape...), data: data}, nil
}

// Full returns a dense tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Dense {
	t := NewDense(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// RandDense returns a dense tensor with elements drawn uniformly from
// [-scale, scale) using rng. Deterministic given the rng.
func RandDense(rng *rand.Rand, scale float32, shape ...int) *Dense {
	t := NewDense(shape...)
	for i := range t.data {
		t.data[i] = (rng.Float32()*2 - 1) * scale
	}
	return t
}

// Shape returns the tensor's shape.
//
// aliases: the returned slice is the tensor's own shape descriptor and must
// not be mutated.
func (t *Dense) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Dense) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Dense) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Dense) Len() int { return len(t.data) }

// SizeBytes returns the in-memory payload size, the quantity the paper's
// communication cost model denotes M.
func (t *Dense) SizeBytes() int { return len(t.data) * BytesPerElem }

// Data returns the underlying flat buffer.
//
// aliases: the returned slice is the tensor's storage — mutations are visible
// to the tensor; this is how collectives operate on tensors without copying.
func (t *Dense) Data() []float32 { return t.data }

// At returns the element at the given multi-dimensional index.
func (t *Dense) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-dimensional index.
func (t *Dense) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Dense) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", x, i, t.shape[i]))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Row returns a view of row r of a 2-D tensor.
//
// aliases: the returned slice is a window into the tensor's storage —
// mutations are visible to the tensor.
func (t *Dense) Row(r int) []float32 {
	if len(t.shape) != 2 {
		panic("tensor: Row requires a 2-D tensor")
	}
	d := t.shape[1]
	return t.data[r*d : (r+1)*d]
}

// Clone returns a deep copy.
func (t *Dense) Clone() *Dense {
	c := &Dense{shape: append([]int(nil), t.shape...), data: make([]float32, len(t.data))}
	copy(c.data, t.data)
	return c
}

// Zero sets every element to zero.
func (t *Dense) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Dense) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// ErrShapeMismatch is returned by binary operations whose operands disagree
// in shape.
var ErrShapeMismatch = errors.New("tensor: shape mismatch")

func (t *Dense) sameShape(o *Dense) error {
	if len(t.data) != len(o.data) {
		return fmt.Errorf("%w: %v vs %v", ErrShapeMismatch, t.shape, o.shape)
	}
	return nil
}

// Add accumulates o into t element-wise.
func (t *Dense) Add(o *Dense) error {
	if err := t.sameShape(o); err != nil {
		return err
	}
	for i, v := range o.data {
		t.data[i] += v
	}
	return nil
}

// Sub subtracts o from t element-wise.
func (t *Dense) Sub(o *Dense) error {
	if err := t.sameShape(o); err != nil {
		return err
	}
	for i, v := range o.data {
		t.data[i] -= v
	}
	return nil
}

// Scale multiplies every element by s.
func (t *Dense) Scale(s float32) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// AXPY computes t += a*x, the classic BLAS primitive.
func (t *Dense) AXPY(a float32, x *Dense) error {
	if err := t.sameShape(x); err != nil {
		return err
	}
	for i, v := range x.data {
		t.data[i] += a * v
	}
	return nil
}

// Sum returns the sum of all elements in float64 to limit rounding drift.
func (t *Dense) Sum() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Dot returns the inner product of two equally shaped tensors.
func (t *Dense) Dot(o *Dense) (float64, error) {
	if err := t.sameShape(o); err != nil {
		return 0, err
	}
	var s float64
	for i, v := range t.data {
		s += float64(v) * float64(o.data[i])
	}
	return s, nil
}

// Norm2 returns the Euclidean norm.
func (t *Dense) Norm2() float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// AllClose reports whether t and o agree element-wise within tol.
func (t *Dense) AllClose(o *Dense, tol float64) bool {
	if len(t.data) != len(o.data) {
		return false
	}
	for i, v := range t.data {
		if math.Abs(float64(v)-float64(o.data[i])) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest element-wise absolute difference between t
// and o. It panics on shape mismatch; use AllClose for a checked comparison.
func (t *Dense) MaxAbsDiff(o *Dense) float64 {
	if len(t.data) != len(o.data) {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var m float64
	for i, v := range t.data {
		d := math.Abs(float64(v) - float64(o.data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// CountNonZero returns the number of elements that are exactly non-zero.
// The paper's density α of a gradient is CountNonZero rows over total rows;
// see Sparse.Density for the row-level variant.
func (t *Dense) CountNonZero() int {
	n := 0
	for _, v := range t.data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Reshape returns a view of t with a new shape covering the same elements.
func (t *Dense) Reshape(shape ...int) (*Dense, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("%w: cannot reshape %v to %v", ErrShapeMismatch, t.shape, shape)
	}
	return &Dense{shape: append([]int(nil), shape...), data: t.data}, nil
}

// String renders a short human-readable description.
func (t *Dense) String() string {
	return fmt.Sprintf("Dense%v(%d elems, %d bytes)", t.shape, len(t.data), t.SizeBytes())
}
