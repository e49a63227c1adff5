package tensor

import (
	"fmt"
	"sort"
)

// Sparse is a row-sparse COO tensor representing the gradient of an
// embedding matrix of logical shape [NumRows x Dim].
//
// Indices[i] is the embedding row the i-th stored row belongs to; its values
// occupy Vals[i*Dim : (i+1)*Dim]. Duplicate indices are permitted (PyTorch
// calls such a tensor "uncoalesced"); Coalesce merges them by summation,
// which is step 2 of the paper's Algorithm 1.
type Sparse struct {
	// NumRows is the number of rows of the logical dense matrix (the
	// vocabulary size for an embedding gradient).
	NumRows int
	// Dim is the width of each row (the embedding dimension).
	Dim int
	// Indices holds the logical row index of each stored row.
	Indices []int64
	// Vals holds the stored rows back to back; len(Vals) == len(Indices)*Dim.
	Vals []float32

	coalesced bool
}

// NewSparse builds a sparse tensor from an index list and a packed value
// buffer. It returns an error if the buffer length disagrees with the index
// count or any index is out of range.
func NewSparse(numRows, dim int, indices []int64, vals []float32) (*Sparse, error) {
	if len(vals) != len(indices)*dim {
		return nil, fmt.Errorf("tensor: sparse vals length %d != %d indices * dim %d", len(vals), len(indices), dim)
	}
	for _, ix := range indices {
		if ix < 0 || ix >= int64(numRows) {
			return nil, fmt.Errorf("tensor: sparse index %d out of range [0,%d)", ix, numRows)
		}
	}
	return &Sparse{NumRows: numRows, Dim: dim, Indices: indices, Vals: vals}, nil
}

// NNZ returns the number of stored rows (including duplicates).
func (s *Sparse) NNZ() int { return len(s.Indices) }

// SizeBytes returns the communication payload size of the sparse tensor:
// 8 bytes per index plus the packed float32 rows. This is the αM quantity in
// the paper's Table 2 cost analysis.
func (s *Sparse) SizeBytes() int { return len(s.Indices)*8 + len(s.Vals)*BytesPerElem }

// Row returns a view of the i-th stored row.
//
// aliases: the returned slice is a window into Vals — mutations are visible
// to the sparse tensor.
func (s *Sparse) Row(i int) []float32 { return s.Vals[i*s.Dim : (i+1)*s.Dim] }

// Clone returns a deep copy.
func (s *Sparse) Clone() *Sparse {
	c := &Sparse{
		NumRows:   s.NumRows,
		Dim:       s.Dim,
		Indices:   append([]int64(nil), s.Indices...),
		Vals:      append([]float32(nil), s.Vals...),
		coalesced: s.coalesced,
	}
	return c
}

// IsCoalesced reports whether the tensor is known to have unique, sorted
// indices. A freshly built tensor is assumed uncoalesced unless proven
// otherwise.
func (s *Sparse) IsCoalesced() bool { return s.coalesced }

// Coalesce returns a new sparse tensor with sorted unique indices, where the
// values of duplicate rows have been summed. This is the COALESCE step of
// Algorithm 1; Table 3's "Coalesced Grad Size" column is SizeBytes of the
// result.
func (s *Sparse) Coalesce() *Sparse {
	if s.coalesced {
		return s
	}
	if len(s.Indices) == 0 {
		return &Sparse{NumRows: s.NumRows, Dim: s.Dim, coalesced: true}
	}
	order := make([]int, len(s.Indices))
	for i := range order {
		order[i] = i
	}
	// Stable sort: duplicate rows are summed in their original order, so a
	// gradient split into parts and coalesced part-wise sums in exactly the
	// order the whole gradient would — which keeps EmbRace's prior/delayed
	// updates bit-identical to whole updates.
	sort.SliceStable(order, func(a, b int) bool { return s.Indices[order[a]] < s.Indices[order[b]] })

	outIdx := make([]int64, 0, len(s.Indices))
	outVals := make([]float32, 0, len(s.Vals))
	for _, src := range order {
		ix := s.Indices[src]
		row := s.Row(src)
		if n := len(outIdx); n > 0 && outIdx[n-1] == ix {
			dst := outVals[(n-1)*s.Dim : n*s.Dim]
			for j, v := range row {
				dst[j] += v
			}
			continue
		}
		outIdx = append(outIdx, ix)
		outVals = append(outVals, row...)
	}
	return &Sparse{NumRows: s.NumRows, Dim: s.Dim, Indices: outIdx, Vals: outVals, coalesced: true}
}

// Partition splits the receiver into the rows whose index occurs in prior
// and the rest. prior must be sorted ascending (duplicates are harmless);
// membership is a binary search. The two results are disjoint and together
// contain every stored row of the receiver — the invariant Algorithm 1
// depends on. PartitionSortedInto is the buffer-reusing form.
func (s *Sparse) Partition(prior []int64) (in, out *Sparse) {
	in = &Sparse{NumRows: s.NumRows, Dim: s.Dim, coalesced: s.coalesced}
	out = &Sparse{NumRows: s.NumRows, Dim: s.Dim, coalesced: s.coalesced}
	s.PartitionSortedInto(prior, in, out)
	return in, out
}

// ColumnSlice returns a sparse tensor containing columns [lo, hi) of every
// stored row. This implements the column-wise partitioning of §4.1.1: worker
// k of N receives ColumnSlice(k*Dim/N, (k+1)*Dim/N) of an embedding gradient
// during the gradient AlltoAll.
func (s *Sparse) ColumnSlice(lo, hi int) *Sparse {
	if lo < 0 || hi > s.Dim || lo > hi {
		panic(fmt.Sprintf("tensor: column slice [%d,%d) out of range for dim %d", lo, hi, s.Dim))
	}
	w := hi - lo
	vals := make([]float32, len(s.Indices)*w)
	for i := range s.Indices {
		copy(vals[i*w:(i+1)*w], s.Row(i)[lo:hi])
	}
	return &Sparse{
		NumRows:   s.NumRows,
		Dim:       w,
		Indices:   append([]int64(nil), s.Indices...),
		Vals:      vals,
		coalesced: s.coalesced,
	}
}

// ToDense scatters the sparse tensor into a dense [NumRows x Dim] matrix,
// summing duplicate rows.
func (s *Sparse) ToDense() *Dense {
	d := NewDense(s.NumRows, s.Dim)
	s.AddToDense(d, 1)
	return d
}

// AddToDense scatter-adds scale * rows into the dense matrix d, which must
// have shape [NumRows x Dim]. This is the sparse parameter-update primitive
// used by the optimizers.
func (s *Sparse) AddToDense(d *Dense, scale float32) {
	if d.Dims() != 2 || d.Dim(0) != s.NumRows || d.Dim(1) != s.Dim {
		panic(fmt.Sprintf("tensor: AddToDense target %v incompatible with sparse [%d x %d]", d.Shape(), s.NumRows, s.Dim))
	}
	for i, ix := range s.Indices {
		dst := d.Row(int(ix))
		row := s.Row(i)
		for j, v := range row {
			dst[j] += scale * v
		}
	}
}

// Concat appends the stored rows of o to s and returns the (uncoalesced)
// result. Both operands must agree on NumRows and Dim. It is the merge step
// used when a worker receives gradient shards from every peer.
func Concat(parts ...*Sparse) (*Sparse, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("tensor: Concat of no parts")
	}
	first := parts[0]
	total := 0
	for _, p := range parts {
		if p.NumRows != first.NumRows || p.Dim != first.Dim {
			return nil, fmt.Errorf("tensor: Concat shape mismatch [%d x %d] vs [%d x %d]",
				p.NumRows, p.Dim, first.NumRows, first.Dim)
		}
		total += len(p.Indices)
	}
	idx := make([]int64, 0, total)
	vals := make([]float32, 0, total*first.Dim)
	for _, p := range parts {
		idx = append(idx, p.Indices...)
		vals = append(vals, p.Vals...)
	}
	return &Sparse{NumRows: first.NumRows, Dim: first.Dim, Indices: idx, Vals: vals}, nil
}

// UniqueIndices returns the sorted set of logical row indices present in s.
// It corresponds to the UNIQUE step of Algorithm 1.
func (s *Sparse) UniqueIndices() []int64 {
	return UniqueInt64(s.Indices)
}

// UniqueInt64 returns the sorted distinct values of xs.
func UniqueInt64(xs []int64) []int64 {
	if len(xs) == 0 {
		return nil
	}
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// Intersect returns the sorted intersection of two sorted unique slices.
// Algorithm 1 line 4 (i_prior = D_u ∩ D_next) is computed with it.
func Intersect(a, b []int64) []int64 {
	out := make([]int64, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// ToSet converts a slice of indices into a membership set.
func ToSet(xs []int64) map[int64]struct{} {
	m := make(map[int64]struct{}, len(xs))
	for _, x := range xs {
		m[x] = struct{}{}
	}
	return m
}

// String renders a short description of the sparse tensor.
func (s *Sparse) String() string {
	return fmt.Sprintf("Sparse[%dx%d](%d rows, %d bytes, coalesced=%v)",
		s.NumRows, s.Dim, len(s.Indices), s.SizeBytes(), s.coalesced)
}
