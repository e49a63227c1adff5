package collective

import (
	"errors"
	"sync"
	"testing"

	"embrace/internal/comm"
	"embrace/internal/tensor"
)

// runTrainingSteps issues steps [from, to) of a training-shaped step — a
// fused ring AllReduce, a sparse AlltoAll and a stats gather — on every rank.
func runTrainingSteps(cms []*Communicator, from, to int) error {
	n := len(cms)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r, c := range cms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var arena SparseShards
			send := make([]*tensor.Sparse, n)
			for s := from; s < to; s++ {
				a, b := []float32{1, 2, 3}, []float32{4}
				if err := c.AllReduceBlocks("dense", s, a, b); err != nil {
					errs[r] = err
					return
				}
				for p := range send {
					send[p] = &tensor.Sparse{NumRows: 16, Dim: 2, Indices: []int64{int64(s % 16)}, Vals: []float32{a[0], b[0]}}
				}
				if err := c.AlltoAllSparse("sparse", s, send, &arena); err != nil {
					errs[r] = err
					return
				}
				if _, err := GatherVia(c, "stats", s, 0, s); err != nil {
					errs[r] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// The Communicator keeps one sequence stream per (peer, op), not per
// (peer, op, step): over every fabric, its stream count after 10 steps is
// its count after 10,000. internal/comm's TestFabricStateBoundedOverSteps
// holds the fabrics' mailbox and chaos-stream maps to the same bound.
func TestCommunicatorStreamsBoundedOverSteps(t *testing.T) {
	const n, steps = 2, 10_000
	type world interface {
		Rank(int) comm.Transport
		Close()
	}
	fabrics := []struct {
		name string
		open func() (world, error)
	}{
		{"mailbox", func() (world, error) { return comm.NewWorld(n) }},
		{"chaos", func() (world, error) { return comm.NewChaosWorld(n, comm.MaskableChaosPlan(5)) }},
		{"tcp", func() (world, error) { return comm.NewTCPWorld(n) }},
	}
	for _, fab := range fabrics {
		t.Run(fab.name, func(t *testing.T) {
			t.Parallel()
			w, err := fab.open()
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			cms := make([]*Communicator, n)
			for r := range cms {
				cms[r] = NewCommunicator(w.Rank(r))
			}
			count := func() int {
				total := 0
				for _, c := range cms {
					total += c.streamCount()
				}
				return total
			}
			if err := runTrainingSteps(cms, 0, 10); err != nil {
				t.Fatal(err)
			}
			early := count()
			if err := runTrainingSteps(cms, 10, steps); err != nil {
				t.Fatal(err)
			}
			if late := count(); late != early {
				t.Fatalf("%d streams after 10 steps, %d after %d", early, late, steps)
			}
		})
	}
}
