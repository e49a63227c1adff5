package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDenseShapeAndLen(t *testing.T) {
	d := NewDense(3, 4)
	if d.Len() != 12 {
		t.Fatalf("Len = %d, want 12", d.Len())
	}
	if d.Dims() != 2 || d.Dim(0) != 3 || d.Dim(1) != 4 {
		t.Fatalf("bad shape %v", d.Shape())
	}
	if d.SizeBytes() != 48 {
		t.Fatalf("SizeBytes = %d, want 48", d.SizeBytes())
	}
}

func TestFromSlice(t *testing.T) {
	d, err := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", d.At(1, 2))
	}
	if _, err := FromSlice([]float32{1, 2}, 3); err == nil {
		t.Fatal("expected error for mismatched slice length")
	}
}

// Wire values, in frames and checkpoints alike, build tensors through
// FromSlice, so hostile shapes must be rejected there, not panic later
// in Row or a column shard: element counts that overflow int and wrap to the
// data length, negative sizes, and data that does not fill the shape.
func TestFromSliceRejectsHostileShapes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		data  []float32
		shape []int
	}{
		{"element count wraps to 0", nil, []int{1 << 32, 1 << 32}},
		{"negative dimension", nil, []int{-1, 0}},
		{"two negatives make a positive", make([]float32, 4), []int{-2, -2}},
		{"data longer than the shape", make([]float32, 7), []int{2, 3}},
		{"data shorter than the shape", make([]float32, 5), []int{2, 3}},
	} {
		if _, err := FromSlice(tc.data, tc.shape...); err == nil {
			t.Errorf("%s: FromSlice accepted it", tc.name)
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	d := NewDense(2, 3, 4)
	d.Set(7.5, 1, 2, 3)
	if got := d.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// The stored offset must follow row-major layout.
	if d.Data()[1*12+2*4+3] != 7.5 {
		t.Fatal("Set did not land at row-major offset")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(2, 2).At(2, 0)
}

func TestRowView(t *testing.T) {
	d, _ := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	r := d.Row(1)
	r[0] = 99
	if d.At(1, 0) != 99 {
		t.Fatal("Row must alias storage")
	}
}

func TestAddSubScaleAXPY(t *testing.T) {
	a, _ := FromSlice([]float32{1, 2, 3}, 3)
	b, _ := FromSlice([]float32{4, 5, 6}, 3)
	if err := a.Add(b); err != nil {
		t.Fatal(err)
	}
	want := []float32{5, 7, 9}
	for i, v := range a.Data() {
		if v != want[i] {
			t.Fatalf("Add[%d] = %v, want %v", i, v, want[i])
		}
	}
	if err := a.Sub(b); err != nil {
		t.Fatal(err)
	}
	a.Scale(2)
	if a.Data()[2] != 6 {
		t.Fatalf("Scale got %v", a.Data())
	}
	if err := a.AXPY(0.5, b); err != nil {
		t.Fatal(err)
	}
	if a.Data()[0] != 2+2 {
		t.Fatalf("AXPY got %v", a.Data())
	}
	c := NewDense(4)
	if err := a.Add(c); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestSumDotNorm(t *testing.T) {
	a, _ := FromSlice([]float32{3, 4}, 2)
	if a.Sum() != 7 {
		t.Fatalf("Sum = %v", a.Sum())
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Full(1, 4)
	b := a.Clone()
	b.Data()[0] = 42
	if a.Data()[0] != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestAllCloseAndMaxAbsDiff(t *testing.T) {
	a, _ := FromSlice([]float32{1, 2}, 2)
	b, _ := FromSlice([]float32{1.0001, 2}, 2)
	if !a.AllClose(b, 1e-3) {
		t.Fatal("expected close")
	}
	if a.AllClose(b, 1e-6) {
		t.Fatal("expected not close")
	}
	if d := a.MaxAbsDiff(b); d < 9e-5 || d > 2e-4 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
}

func TestCountNonZero(t *testing.T) {
	a, _ := FromSlice([]float32{0, 1, 0, 2}, 4)
	if a.CountNonZero() != 2 {
		t.Fatalf("CountNonZero = %d", a.CountNonZero())
	}
}

func TestRandDenseDeterministic(t *testing.T) {
	a := RandDense(rand.New(rand.NewSource(1)), 0.5, 10)
	b := RandDense(rand.New(rand.NewSource(1)), 0.5, 10)
	if !a.AllClose(b, 0) {
		t.Fatal("same seed must give same tensor")
	}
	for _, v := range a.Data() {
		if v < -0.5 || v >= 0.5 {
			t.Fatalf("value %v out of [-0.5, 0.5)", v)
		}
	}
}

// Property: Add is commutative up to float rounding on small values.
func TestAddCommutativeProperty(t *testing.T) {
	f := func(xs []float32) bool {
		if len(xs) == 0 {
			return true
		}
		a, _ := FromSlice(append([]float32(nil), xs...), len(xs))
		b := RandDense(rand.New(rand.NewSource(int64(len(xs)))), 1, len(xs))
		a1 := a.Clone()
		_ = a1.Add(b)
		b1 := b.Clone()
		_ = b1.Add(a)
		return a1.AllClose(b1, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Scale distributes over Add: s*(a+b) == s*a + s*b.
func TestScaleDistributesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(64) + 1
		a := RandDense(rng, 1, n)
		b := RandDense(rng, 1, n)
		s := rng.Float32()
		lhs := a.Clone()
		_ = lhs.Add(b)
		lhs.Scale(s)
		ra := a.Clone()
		ra.Scale(s)
		rb := b.Clone()
		rb.Scale(s)
		_ = ra.Add(rb)
		return lhs.AllClose(ra, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
