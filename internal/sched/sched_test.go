package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"embrace/internal/tensor"
)

func TestVerticalSplitMatchesAlgorithm1(t *testing.T) {
	// Current batch tokens {1,2,2,5}, next batch {2,5,7}.
	// i_prior = {2,5}, i_delayed = {1}.
	g, err := tensor.NewSparse(10, 1,
		[]int64{1, 2, 2, 5},
		[]float32{10, 20, 21, 50})
	if err != nil {
		t.Fatal(err)
	}
	cur := tensor.UniqueInt64([]int64{1, 2, 2, 5})
	next := tensor.UniqueInt64([]int64{2, 5, 7})
	prior, delayed := VerticalSplit(g, cur, next)
	if prior.NNZ() != 2 || prior.Indices[0] != 2 || prior.Indices[1] != 5 {
		t.Fatalf("prior indices = %v", prior.Indices)
	}
	if prior.Vals[0] != 41 { // coalesced 20+21
		t.Fatalf("prior row 2 = %v, want coalesced 41", prior.Vals[0])
	}
	if delayed.NNZ() != 1 || delayed.Indices[0] != 1 {
		t.Fatalf("delayed indices = %v", delayed.Indices)
	}
}

// Property: prior ∪ delayed == coalesce(G), disjoint, and the dense
// projections agree — the Algorithm-1 invariant.
func TestVerticalSplitInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 30
		nnz := 1 + rng.Intn(50)
		idx := make([]int64, nnz)
		vals := make([]float32, nnz)
		for i := range idx {
			idx[i] = int64(rng.Intn(rows))
			vals[i] = rng.Float32()
		}
		g, err := tensor.NewSparse(rows, 1, idx, vals)
		if err != nil {
			return false
		}
		next := make([]int64, rng.Intn(20))
		for i := range next {
			next[i] = int64(rng.Intn(rows))
		}
		cur := g.UniqueIndices()
		nextU := tensor.UniqueInt64(next)
		prior, delayed := VerticalSplit(g, cur, nextU)
		// Disjoint.
		pset := tensor.ToSet(prior.Indices)
		for _, ix := range delayed.Indices {
			if _, ok := pset[ix]; ok {
				return false
			}
		}
		// Prior rows must all be in the next batch.
		nset := tensor.ToSet(nextU)
		for _, ix := range prior.Indices {
			if _, ok := nset[ix]; !ok {
				return false
			}
		}
		// Delayed rows must not be in the next batch.
		for _, ix := range delayed.Indices {
			if _, ok := nset[ix]; ok {
				return false
			}
		}
		// Union reconstructs the coalesced gradient.
		merged, err := tensor.Concat(prior, delayed)
		if err != nil {
			return false
		}
		return merged.ToDense().AllClose(g.ToDense(), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureSplitSizes(t *testing.T) {
	g, _ := tensor.NewSparse(10, 2,
		[]int64{1, 1, 3},
		[]float32{1, 1, 2, 2, 3, 3})
	sz := MeasureSplit(g, g.UniqueIndices(), []int64{3})
	rowBytes := 8 + 2*tensor.BytesPerElem
	if sz.OriginalBytes != 3*rowBytes {
		t.Fatalf("original = %d", sz.OriginalBytes)
	}
	if sz.CoalescedBytes != 2*rowBytes {
		t.Fatalf("coalesced = %d", sz.CoalescedBytes)
	}
	if sz.PriorBytes != rowBytes || sz.DelayedBytes != rowBytes {
		t.Fatalf("prior/delayed = %d/%d", sz.PriorBytes, sz.DelayedBytes)
	}
}
