package tensor

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func mustSparse(t *testing.T, numRows, dim int, idx []int64, vals []float32) *Sparse {
	t.Helper()
	s, err := NewSparse(numRows, dim, idx, vals)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomSparse builds a random, possibly duplicate-laden sparse tensor.
func randomSparse(rng *rand.Rand, numRows, dim, nnz int) *Sparse {
	idx := make([]int64, nnz)
	vals := make([]float32, nnz*dim)
	for i := range idx {
		idx[i] = int64(rng.Intn(numRows))
	}
	for i := range vals {
		vals[i] = rng.Float32()*2 - 1
	}
	s, _ := NewSparse(numRows, dim, idx, vals)
	return s
}

func TestNewSparseValidation(t *testing.T) {
	if _, err := NewSparse(4, 2, []int64{0, 1}, []float32{1, 2, 3}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := NewSparse(4, 2, []int64{4}, []float32{1, 2}); err == nil {
		t.Fatal("expected out-of-range index error")
	}
	if _, err := NewSparse(4, 2, []int64{-1}, []float32{1, 2}); err == nil {
		t.Fatal("expected negative index error")
	}
}

func TestCoalesceMergesDuplicates(t *testing.T) {
	s := mustSparse(t, 10, 2,
		[]int64{3, 1, 3, 1},
		[]float32{1, 2, 10, 20, 3, 4, 30, 40})
	c := s.Coalesce()
	if !c.IsCoalesced() {
		t.Fatal("result must be coalesced")
	}
	if c.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", c.NNZ())
	}
	if c.Indices[0] != 1 || c.Indices[1] != 3 {
		t.Fatalf("indices = %v, want sorted [1 3]", c.Indices)
	}
	if c.Row(0)[0] != 40 || c.Row(0)[1] != 60 {
		t.Fatalf("row 1 = %v, want [40 60]", c.Row(0))
	}
	if c.Row(1)[0] != 4 || c.Row(1)[1] != 6 {
		t.Fatalf("row 3 = %v, want [4 6]", c.Row(1))
	}
}

func TestCoalesceEmptyAndIdempotent(t *testing.T) {
	e := EmptySparse(5, 3)
	if e.Coalesce() != e {
		t.Fatal("coalescing a coalesced tensor should be a no-op")
	}
	s := mustSparse(t, 5, 1, []int64{2, 2}, []float32{1, 1})
	c := s.Coalesce()
	if c.Coalesce() != c {
		t.Fatal("Coalesce must be idempotent")
	}
}

// Property: ToDense is invariant under Coalesce.
func TestCoalescePreservesDenseProjection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSparse(rng, 20, 3, rng.Intn(40))
		return s.ToDense().AllClose(s.Coalesce().ToDense(), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: after Coalesce, indices are strictly increasing (sorted unique).
func TestCoalesceSortedUniqueProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomSparse(rng, 15, 2, rng.Intn(50)).Coalesce()
		for i := 1; i < len(c.Indices); i++ {
			if c.Indices[i] <= c.Indices[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionInvariants(t *testing.T) {
	// Property: Partition(prior) yields disjoint parts covering the input,
	// which is the correctness condition for Algorithm 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSparse(rng, 30, 2, rng.Intn(60)).Coalesce()
		var prior []int64
		for _, ix := range s.Indices {
			if rng.Intn(2) == 0 {
				prior = append(prior, ix) // Indices are sorted: prior stays sorted
			}
		}
		in, out := s.Partition(prior)
		if in.NNZ()+out.NNZ() != s.NNZ() {
			return false
		}
		for _, ix := range in.Indices {
			if !ContainsSorted(prior, ix) {
				return false
			}
		}
		for _, ix := range out.Indices {
			if ContainsSorted(prior, ix) {
				return false
			}
		}
		// The two parts must reassemble to the original dense projection.
		merged, err := Concat(in, out)
		if err != nil {
			return false
		}
		return merged.ToDense().AllClose(s.ToDense(), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexSelect(t *testing.T) {
	s := mustSparse(t, 10, 1, []int64{1, 5, 7}, []float32{10, 50, 70})
	sel := s.IndexSelect([]int64{5, 7, 9})
	if sel.NNZ() != 2 || sel.Indices[0] != 5 || sel.Indices[1] != 7 {
		t.Fatalf("IndexSelect got %v", sel.Indices)
	}
	if sel.Vals[0] != 50 || sel.Vals[1] != 70 {
		t.Fatalf("IndexSelect vals %v", sel.Vals)
	}
}

func TestColumnSlice(t *testing.T) {
	s := mustSparse(t, 4, 4, []int64{0, 2}, []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
	})
	c := s.ColumnSlice(1, 3)
	if c.Dim != 2 {
		t.Fatalf("Dim = %d, want 2", c.Dim)
	}
	if c.Row(0)[0] != 2 || c.Row(0)[1] != 3 || c.Row(1)[0] != 6 || c.Row(1)[1] != 7 {
		t.Fatalf("ColumnSlice rows = %v", c.Vals)
	}
	// Column slices across all shards must reassemble the original rows.
	left := s.ColumnSlice(0, 2)
	right := s.ColumnSlice(2, 4)
	for i := range s.Indices {
		for j := 0; j < 2; j++ {
			if left.Row(i)[j] != s.Row(i)[j] || right.Row(i)[j] != s.Row(i)[j+2] {
				t.Fatal("column shards do not reassemble original")
			}
		}
	}
}

func TestColumnSlicePanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EmptySparse(3, 4).ColumnSlice(2, 5)
}

func TestToDenseAndAddToDense(t *testing.T) {
	s := mustSparse(t, 3, 2, []int64{1, 1}, []float32{1, 2, 3, 4})
	d := s.ToDense()
	if d.At(1, 0) != 4 || d.At(1, 1) != 6 {
		t.Fatalf("ToDense row 1 = %v %v", d.At(1, 0), d.At(1, 1))
	}
	if d.At(0, 0) != 0 || d.At(2, 1) != 0 {
		t.Fatal("untouched rows must stay zero")
	}
	s.AddToDense(d, -1)
	if d.At(1, 0) != 0 || d.At(1, 1) != 0 {
		t.Fatal("AddToDense with scale -1 must cancel")
	}
}

func TestFromDenseRows(t *testing.T) {
	d, _ := FromSlice([]float32{0, 1, 10, 11, 20, 21}, 3, 2)
	s := FromDenseRows(d, []int64{2, 0})
	if s.NNZ() != 2 || s.Row(0)[0] != 20 || s.Row(1)[1] != 1 {
		t.Fatalf("FromDenseRows got %v / %v", s.Indices, s.Vals)
	}
}

func TestConcat(t *testing.T) {
	a := mustSparse(t, 5, 1, []int64{0}, []float32{1})
	b := mustSparse(t, 5, 1, []int64{3}, []float32{2})
	c, err := Concat(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 2 || c.Indices[1] != 3 {
		t.Fatalf("Concat got %v", c.Indices)
	}
	bad := mustSparse(t, 5, 2, []int64{0}, []float32{1, 2})
	if _, err := Concat(a, bad); err == nil {
		t.Fatal("expected dim mismatch error")
	}
	if _, err := Concat(); err == nil {
		t.Fatal("expected empty concat error")
	}
}

func TestDensityAndSizes(t *testing.T) {
	s := mustSparse(t, 100, 4, []int64{1, 1, 7}, make([]float32, 12))
	if got := s.Density(); got != 0.02 {
		t.Fatalf("Density = %v, want 0.02 (2 unique of 100)", got)
	}
	if s.SizeBytes() != 3*8+12*4 {
		t.Fatalf("SizeBytes = %d", s.SizeBytes())
	}
	if s.DenseSizeBytes() != 100*4*4 {
		t.Fatalf("DenseSizeBytes = %d", s.DenseSizeBytes())
	}
}

func TestUniqueIntersectDifference(t *testing.T) {
	u := UniqueInt64([]int64{5, 1, 5, 3, 1})
	if len(u) != 3 || u[0] != 1 || u[1] != 3 || u[2] != 5 {
		t.Fatalf("UniqueInt64 = %v", u)
	}
	a := []int64{1, 3, 5, 7}
	b := []int64{3, 4, 5, 8}
	in := Intersect(a, b)
	if len(in) != 2 || in[0] != 3 || in[1] != 5 {
		t.Fatalf("Intersect = %v", in)
	}
	diff := Difference(a, b)
	if len(diff) != 2 || diff[0] != 1 || diff[1] != 7 {
		t.Fatalf("Difference = %v", diff)
	}
	if got := Intersect(nil, b); len(got) != 0 {
		t.Fatalf("Intersect(nil,b) = %v", got)
	}
	if got := Difference(a, nil); len(got) != len(a) {
		t.Fatalf("Difference(a,nil) = %v", got)
	}
}

// Property: Intersect ∪ Difference partitions the left operand.
func TestIntersectDifferencePartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() []int64 {
			n := rng.Intn(30)
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = int64(rng.Intn(40))
			}
			return UniqueInt64(xs)
		}
		a, b := mk(), mk()
		in, diff := Intersect(a, b), Difference(a, b)
		merged := append(append([]int64(nil), in...), diff...)
		sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
		if len(merged) != len(a) {
			return false
		}
		for i := range a {
			if merged[i] != a[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneSparseIndependence(t *testing.T) {
	s := mustSparse(t, 5, 1, []int64{2}, []float32{7})
	c := s.Clone()
	c.Vals[0] = 9
	c.Indices[0] = 3
	if s.Vals[0] != 7 || s.Indices[0] != 2 {
		t.Fatal("Clone must not share storage")
	}
}

func TestGobRoundTripDense(t *testing.T) {
	orig := Full(3.5, 2, 3)
	orig.Set(-1, 1, 2)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(orig); err != nil {
		t.Fatal(err)
	}
	var got Dense
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !got.AllClose(orig, 0) || got.Dim(0) != 2 || got.Dim(1) != 3 {
		t.Fatalf("round trip mismatch: %v", got.Shape())
	}
}
