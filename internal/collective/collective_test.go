package collective

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"embrace/internal/comm"
	"embrace/internal/tensor"
)

func TestChunkBounds(t *testing.T) {
	// 10 elements over 4 parts -> sizes 3,3,2,2 covering [0,10).
	wantLo := []int{0, 3, 6, 8}
	wantHi := []int{3, 6, 8, 10}
	for i := 0; i < 4; i++ {
		lo, hi := chunkBounds(10, 4, i)
		if lo != wantLo[i] || hi != wantHi[i] {
			t.Fatalf("chunk %d = [%d,%d), want [%d,%d)", i, lo, hi, wantLo[i], wantHi[i])
		}
	}
	// Fewer elements than parts: some chunks empty, still a partition.
	total := 0
	for i := 0; i < 8; i++ {
		lo, hi := chunkBounds(3, 8, i)
		total += hi - lo
	}
	if total != 3 {
		t.Fatalf("chunks cover %d elements, want 3", total)
	}
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		var mu sync.Mutex
		arrived := 0
		err := comm.RunRanks(n, func(tr comm.Transport) error {
			mu.Lock()
			arrived++
			mu.Unlock()
			if err := NewCommunicator(tr).Barrier("test/barrier", 0); err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			if arrived != n {
				return fmt.Errorf("rank %d passed barrier with only %d arrived", tr.Rank(), arrived)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestRingAllReduceSumsAcrossRanks(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		for _, m := range []int{1, 2, n - 1, n, n + 1, 64, 1000} {
			if m <= 0 {
				continue
			}
			err := comm.RunRanks(n, func(tr comm.Transport) error {
				buf := make([]float32, m)
				for i := range buf {
					buf[i] = float32(tr.Rank()*m + i)
				}
				if err := NewCommunicator(tr).AllReduce("test/allreduce", 0, buf); err != nil {
					return err
				}
				for i, v := range buf {
					// sum over r of r*m+i = m*n(n-1)/2 + n*i
					want := float32(m*n*(n-1)/2 + n*i)
					if v != want {
						return fmt.Errorf("n=%d m=%d rank %d buf[%d]=%v want %v",
							n, m, tr.Rank(), i, v, want)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Property: ring AllReduce equals locally computed sum for random tensors.
func TestRingAllReduceMatchesSequentialSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		m := 1 + rng.Intn(200)
		inputs := make([][]float32, n)
		want := make([]float64, m)
		for r := range inputs {
			inputs[r] = make([]float32, m)
			for i := range inputs[r] {
				inputs[r][i] = rng.Float32()*2 - 1
				want[i] += float64(inputs[r][i])
			}
		}
		err := comm.RunRanks(n, func(tr comm.Transport) error {
			buf := append([]float32(nil), inputs[tr.Rank()]...)
			if err := NewCommunicator(tr).AllReduce("test/allreduce", 0, buf); err != nil {
				return err
			}
			for i, v := range buf {
				if math.Abs(float64(v)-want[i]) > 1e-4 {
					return fmt.Errorf("elem %d: %v vs %v", i, v, want[i])
				}
			}
			return nil
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterOwnChunk(t *testing.T) {
	const n, m = 4, 10
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		buf := make([]float32, m)
		for i := range buf {
			buf[i] = float32(tr.Rank() + 1) // sum across ranks = 1+2+3+4 = 10
		}
		c := NewCommunicator(tr)
		if err := c.ReduceScatterBlocks("test/rs", 0, buf); err != nil {
			return err
		}
		lo, hi := c.ChunkOf(m)
		wantLo, wantHi := chunkBounds(m, n, tr.Rank())
		if lo != wantLo || hi != wantHi {
			return fmt.Errorf("bounds [%d,%d), want [%d,%d)", lo, hi, wantLo, wantHi)
		}
		for i := lo; i < hi; i++ {
			if buf[i] != 10 {
				return fmt.Errorf("rank %d chunk elem %d = %v, want 10", tr.Rank(), i, buf[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherOrderAndValues(t *testing.T) {
	const n = 5
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		got, err := AllGatherVia(NewCommunicator(tr), "test/allgather", 0, []byte(fmt.Sprintf("rank-%d", tr.Rank())))
		if err != nil {
			return err
		}
		for p, v := range got {
			if string(v) != fmt.Sprintf("rank-%d", p) {
				return fmt.Errorf("slot %d = %q", p, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllIsTransposition(t *testing.T) {
	// Rank r sends value r*10+p to rank p; so rank p must receive p from
	// sender r as r*10+p. AllToAll is exactly a matrix transpose.
	const n = 6
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		send := make([]int, n)
		for p := range send {
			send[p] = tr.Rank()*10 + p
		}
		got, err := AllToAllVia(NewCommunicator(tr), "test/alltoall", 0, send)
		if err != nil {
			return err
		}
		for p, v := range got {
			if v != p*10+tr.Rank() {
				return fmt.Errorf("rank %d slot %d = %d, want %d", tr.Rank(), p, v, p*10+tr.Rank())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: AllToAll applied twice restores the original send matrix.
func TestAllToAllInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		vals := make([][]int, n)
		for r := range vals {
			vals[r] = make([]int, n)
			for p := range vals[r] {
				vals[r][p] = rng.Int()
			}
		}
		err := comm.RunRanks(n, func(tr comm.Transport) error {
			c := NewCommunicator(tr)
			once, err := AllToAllVia(c, "test/alltoall", 0, vals[tr.Rank()])
			if err != nil {
				return err
			}
			twice, err := AllToAllVia(c, "test/alltoall", 1, once)
			if err != nil {
				return err
			}
			for p := range twice {
				if twice[p] != vals[tr.Rank()][p] {
					return fmt.Errorf("not an involution at %d", p)
				}
			}
			return nil
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllSizeValidation(t *testing.T) {
	err := comm.RunRanks(2, func(tr comm.Transport) error {
		_, err := AllToAllVia(NewCommunicator(tr), "test/alltoall", 0, []int{1}) // wrong length on a 2-rank world
		if err == nil {
			return fmt.Errorf("expected size error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherToRoot(t *testing.T) {
	const n = 4
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		got, err := GatherVia(NewCommunicator(tr), "test/gather", 0, 0, tr.Rank()*2)
		if err != nil {
			return err
		}
		if tr.Rank() != 0 {
			if got != nil {
				return fmt.Errorf("non-root got %v", got)
			}
			return nil
		}
		for p, v := range got {
			if v != p*2 {
				return fmt.Errorf("root slot %d = %d", p, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSparseAllGatherEqualsSum(t *testing.T) {
	// Each rank holds a sparse gradient; the gathered+concatenated tensor
	// must project to the same dense matrix as summing every rank's dense
	// projection — the semantic equivalence of Figure 1(b).
	const n = 3
	const rows, dim = 12, 2
	locals := make([]*tensor.Sparse, n)
	want := tensor.NewDense(rows, dim)
	rng := rand.New(rand.NewSource(7))
	for r := range locals {
		nnz := 3 + rng.Intn(4)
		idx := make([]int64, nnz)
		vals := make([]float32, nnz*dim)
		for i := range idx {
			idx[i] = int64(rng.Intn(rows))
		}
		for i := range vals {
			vals[i] = rng.Float32()
		}
		s, err := tensor.NewSparse(rows, dim, idx, vals)
		if err != nil {
			t.Fatal(err)
		}
		locals[r] = s
		s.AddToDense(want, 1)
	}
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		got, err := NewCommunicator(tr).SparseAllGather("test/sparse-ag", 0, locals[tr.Rank()])
		if err != nil {
			return err
		}
		if !got.ToDense().AllClose(want, 1e-4) {
			return fmt.Errorf("rank %d: gathered sparse != dense sum", tr.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// SparseAllGather returns the rank-ordered concatenation of every rank's
// tensor, bit for bit, in memory the next call does not touch; a rank whose
// width differs, or that sends a row outside the table, fails the gather on
// every rank.
func TestSparseAllGatherConcatOwnedAndChecked(t *testing.T) {
	const n = 3
	locals := make([][]*tensor.Sparse, 2)
	for call := range locals {
		for r := 0; r < n; r++ {
			locals[call] = append(locals[call], randShards(int64(call), r, 1, 16, 2)[0])
		}
	}
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		c := NewCommunicator(tr)
		var got []*tensor.Sparse
		for call := range locals {
			g, err := c.SparseAllGather("test/sparse-ag", call, locals[call][tr.Rank()])
			if err != nil {
				return err
			}
			got = append(got, g)
		}
		for call, g := range got {
			want, err := tensor.Concat(locals[call]...)
			if err != nil {
				return err
			}
			if !sparseBitsEqual(want, g) {
				return fmt.Errorf("rank %d: gather %d is not the concatenation of the rank tensors", tr.Rank(), call)
			}
		}
		dim := 2 + tr.Rank()/2 // rank 2 is one column wider
		local := &tensor.Sparse{NumRows: 16, Dim: dim, Indices: []int64{1}, Vals: make([]float32, dim)}
		if _, err := c.SparseAllGather("test/sparse-ag-width", 0, local); err == nil {
			return fmt.Errorf("rank %d: gather across widths 2 and 3 succeeded", tr.Rank())
		}
		row := int64(3 + 13*(tr.Rank()/2)) // rank 2 sends row 16 of a 16-row table
		local = &tensor.Sparse{NumRows: 16, Dim: 2, Indices: []int64{row}, Vals: make([]float32, 2)}
		if _, err := c.SparseAllGather("test/sparse-ag-rows", 0, local); err == nil {
			return fmt.Errorf("rank %d: gather with row 16 of 16 succeeded", tr.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSparseAllToAllRoutesShards(t *testing.T) {
	const n = 3
	const rows = 6
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		shards := make([]*tensor.Sparse, n)
		for p := range shards {
			s, err := tensor.NewSparse(rows, 1,
				[]int64{int64(tr.Rank())}, []float32{float32(p)})
			if err != nil {
				return err
			}
			shards[p] = s
		}
		var arena SparseShards
		if err := NewCommunicator(tr).AlltoAllSparse("test/sparse-a2a", 0, shards, &arena); err != nil {
			return err
		}
		var s tensor.Sparse
		for p := 0; p < n; p++ {
			// shard from sender p must carry index p and value = my rank.
			arena.ShardView(p, &s)
			if len(s.Indices) != 1 || s.Indices[0] != int64(p) || s.Vals[0] != float32(tr.Rank()) {
				return fmt.Errorf("rank %d from %d: idx %v val %v",
					tr.Rank(), p, s.Indices, s.Vals)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCollectivesDistinctTags(t *testing.T) {
	// Two allreduces in flight on different op names must not interfere — the
	// property the scheduler's communication thread relies on.
	const n, m = 4, 32
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		c := NewCommunicator(tr)
		a := make([]float32, m)
		b := make([]float32, m)
		for i := range a {
			a[i] = 1
			b[i] = 2
		}
		var wg sync.WaitGroup
		var errA, errB error
		wg.Add(2)
		go func() { defer wg.Done(); errA = c.AllReduce("test/concurrent-a", 0, a) }()
		go func() { defer wg.Done(); errB = c.AllReduce("test/concurrent-b", 0, b) }()
		wg.Wait()
		if errA != nil || errB != nil {
			return fmt.Errorf("errs: %v %v", errA, errB)
		}
		for i := range a {
			if a[i] != float32(n) || b[i] != float32(2*n) {
				return fmt.Errorf("interference: a[%d]=%v b[%d]=%v", i, a[i], i, b[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
