package collective

import (
	"fmt"
	"testing"

	"embrace/internal/comm"
	"embrace/internal/tensor"
)

// The collectives are transport-agnostic; these tests re-run the core
// algorithms over real TCP sockets to prove the claim.

func TestRingAllReduceOverTCP(t *testing.T) {
	const n, m = 4, 100
	err := comm.RunRanksTCP(n, func(tr comm.Transport) error {
		buf := make([]float32, m)
		for i := range buf {
			buf[i] = float32(tr.Rank() + 1)
		}
		if err := NewCommunicator(tr).AllReduce("tcp/allreduce", 0, buf); err != nil {
			return err
		}
		want := float32(n * (n + 1) / 2)
		for i, v := range buf {
			if v != want {
				return fmt.Errorf("rank %d buf[%d]=%v want %v", tr.Rank(), i, v, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllOverTCP(t *testing.T) {
	const n = 4
	err := comm.RunRanksTCP(n, func(tr comm.Transport) error {
		send := make([][]float32, n)
		for p := range send {
			send[p] = []float32{float32(tr.Rank()), float32(p)}
		}
		got, err := AllToAllVia(NewCommunicator(tr), "tcp/alltoall", 0, send)
		if err != nil {
			return err
		}
		for p, v := range got {
			if v[0] != float32(p) || v[1] != float32(tr.Rank()) {
				return fmt.Errorf("rank %d slot %d = %v", tr.Rank(), p, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSparseAllGatherOverTCP(t *testing.T) {
	const n = 3
	const rows, dim = 8, 2
	err := comm.RunRanksTCP(n, func(tr comm.Transport) error {
		local, err := tensor.NewSparse(rows, dim,
			[]int64{int64(tr.Rank()), 7},
			[]float32{1, 1, 2, 2})
		if err != nil {
			return err
		}
		got, err := NewCommunicator(tr).SparseAllGather("tcp/sparse-ag", 0, local)
		if err != nil {
			return err
		}
		dense := got.ToDense()
		// Row 7 received a (2,2) contribution from each of the n ranks.
		if dense.At(7, 0) != float32(2*n) {
			return fmt.Errorf("rank %d: row 7 = %v", tr.Rank(), dense.At(7, 0))
		}
		for r := 0; r < n; r++ {
			if dense.At(r, 0) != 1 {
				return fmt.Errorf("rank %d: row %d = %v", tr.Rank(), r, dense.At(r, 0))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDenseTensorPayloadOverTCP(t *testing.T) {
	// The EmbRace strategy ships *tensor.Dense through AlltoAll; the dense
	// frame must preserve shape and values.
	const n = 3
	err := comm.RunRanksTCP(n, func(tr comm.Transport) error {
		send := make([]*tensor.Dense, n)
		for p := range send {
			send[p] = tensor.Full(float32(tr.Rank()*10+p), 2, 2)
		}
		got, err := AllToAllVia(NewCommunicator(tr), "tcp/alltoall", 0, send)
		if err != nil {
			return err
		}
		for p, d := range got {
			if d.Dim(0) != 2 || d.Dim(1) != 2 {
				return fmt.Errorf("shape %v", d.Shape())
			}
			if d.At(1, 1) != float32(p*10+tr.Rank()) {
				return fmt.Errorf("rank %d from %d: %v", tr.Rank(), p, d.At(1, 1))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
