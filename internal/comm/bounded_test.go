package comm_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"embrace/internal/collective"
	"embrace/internal/comm"
	"embrace/internal/tensor"
)

// world is what the three fabrics' harnesses share.
type world interface {
	Rank(i int) comm.Transport
	Close()
}

// boundedSteps is the long run the fabric state must stay flat over.
const boundedSteps = 10_000

// runSteps issues steps [from, to) of one training-shaped step — a fused
// ring AllReduce, a sparse AlltoAll and a stats gather — on every rank.
func runSteps(cms []*collective.Communicator, from, to int) error {
	n := len(cms)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r, cm := range cms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var arena collective.SparseShards
			send := make([]*tensor.Sparse, n)
			for s := from; s < to; s++ {
				a, b := []float32{1, 2, 3}, []float32{4}
				if err := cm.AllReduceBlocks("dense", s, a, b); err != nil {
					errs[r] = err
					return
				}
				for p := range send {
					send[p] = &tensor.Sparse{NumRows: 16, Dim: 2, Indices: []int64{int64(s % 16)}, Vals: []float32{a[0], b[0]}}
				}
				if err := cm.AlltoAllSparse("sparse", s, send, &arena); err != nil {
					errs[r] = err
					return
				}
				if _, err := collective.GatherVia(cm, "stats", s, 0, s); err != nil {
					errs[r] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// The fabric keeps one mailbox and one chaos stream per (peer, op), not per
// (peer, op, step): the counts after 10 steps are the counts after 10,000.
func TestFabricStateBoundedOverSteps(t *testing.T) {
	const n = 2
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
			cms := make([]*collective.Communicator, n)
			for r := range cms {
				cms[r] = collective.NewCommunicator(w.Rank(r))
			}
			counts := func() string {
				boxes, streams := 0, 0
				for r := range n {
					boxes += comm.MailboxCount(w.Rank(r))
					streams += comm.ChaosStreamCount(w.Rank(r))
				}
				return fmt.Sprintf("%d mailboxes, %d chaos streams", boxes, streams)
			}
			if err := runSteps(cms, 0, 10); err != nil {
				t.Fatal(err)
			}
			early := counts()
			if err := runSteps(cms, 10, boundedSteps); err != nil {
				t.Fatal(err)
			}
			if late := counts(); late != early {
				t.Fatalf("after 10 steps: %s; after %d: %s", early, boundedSteps, late)
			}
		})
	}
}
