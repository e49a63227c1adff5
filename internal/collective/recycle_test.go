package collective

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"embrace/internal/comm"
	"embrace/internal/tensor"
)

// A pooled wire buffer read after it is put back sees poison, not the data
// it carried: the use-after-recycle shape turns into NaN values and
// out-of-range row ids that the bit-identity suites reject.
func TestRecycledBuffersArePoisoned(t *testing.T) {
	cm := NewCommunicator(nil)

	vals := cm.f32.get(8)
	fill(vals, 1.5)
	cm.f32.put(vals)
	for i, v := range vals[:cap(vals)] {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("recycled value %d reads %v, want NaN", i, v)
		}
	}

	idx := cm.i64.get(8)
	fill(idx, 3)
	cm.i64.put(idx)
	for i, v := range idx[:cap(idx)] {
		if v != poisonI64 {
			t.Fatalf("recycled index %d reads %d, want poison", i, v)
		}
	}
}

// A ShardView or Merged view held across the next AlltoAllSparse into the
// same arena reads poison wherever the new exchange did not write.
func TestStaleArenaViewsArePoisoned(t *testing.T) {
	const n, rows, dim = 2, 8, 2
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		cm := NewCommunicator(tr)
		send := make([]*tensor.Sparse, n)
		for p := range send {
			s, err := tensor.NewSparse(rows, dim, []int64{1, 5}, []float32{1, 2, 3, 4})
			if err != nil {
				return err
			}
			send[p] = s
		}
		var arena SparseShards
		if err := cm.AlltoAllSparse("grad", 0, send, &arena); err != nil {
			return err
		}
		var view tensor.Sparse
		arena.ShardView(1-tr.Rank(), &view)
		merged := *arena.Merged()

		// The next exchange carries no rows at all, so nothing refills the
		// memory the stale views point into.
		for p := range send {
			send[p] = &tensor.Sparse{NumRows: rows, Dim: dim}
		}
		if err := cm.AlltoAllSparse("grad", 1, send, &arena); err != nil {
			return err
		}
		for _, stale := range []tensor.Sparse{view, merged} {
			for _, v := range stale.Vals {
				if !math.IsNaN(float64(v)) {
					return errors.New("stale arena value is not poisoned")
				}
			}
			for _, ix := range stale.Indices {
				if ix != poisonI64 {
					return errors.New("stale arena index is not poisoned")
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A collective issued on some ranks only fails with an error naming the op
// and the silent peer, not a hang: the schedule-divergence shape of a gather
// guarded by a rank check. Test binaries give every fabric a default
// receive deadline; nothing here sets one.
func TestRankConditionedGatherFailsNamingOp(t *testing.T) {
	t.Parallel()
	w, err := comm.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	done := make(chan error, 1)
	go func() {
		_, err := GatherVia(NewCommunicator(w.Rank(0)), "stats", 7, 0, []float32{1})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, comm.ErrTimeout) || !strings.Contains(err.Error(), "stats recv from rank 1") {
			t.Fatalf("err = %v, want ErrTimeout naming op stats and rank 1", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("rank-conditioned gather hung past the default receive deadline")
	}
}
