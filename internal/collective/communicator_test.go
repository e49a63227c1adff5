package collective

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"embrace/internal/comm"
	"embrace/internal/tensor"
)

func TestCommunicatorTagsDisjointAcrossOps(t *testing.T) {
	w, err := comm.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c := NewCommunicator(w.Rank(0))
	seen := map[int]string{}
	for _, op := range []string{"dense/w1", "dense/w2", "emb/grad", "emb/data", "stats"} {
		tag, err := c.Tag(op)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[tag]; ok {
			t.Fatalf("tag %d assigned to both %q and %q", tag, prev, op)
		}
		seen[tag] = op
		if tag < tagBase {
			t.Fatalf("tag %d of %q below the Communicator tag base", tag, op)
		}
		if again, _ := c.Tag(op); again != tag {
			t.Fatalf("op %q: tag %d then %d", op, tag, again)
		}
	}
	if got := len(c.Ops()); got != 5 {
		t.Fatalf("Ops() reports %d ops, want 5", got)
	}
}

func TestCommunicatorTagDeterministicAcrossRanksAndOrder(t *testing.T) {
	// Ranks may register ops in different orders (e.g. a background delayed
	// exchange racing the foreground step); tags must still agree.
	w, err := comm.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	a := NewCommunicator(w.Rank(0))
	b := NewCommunicator(w.Rank(1))
	ops := []string{"alpha", "beta", "gamma"}
	tagsA := map[string]int{}
	for _, op := range ops {
		tag, err := a.Tag(op)
		if err != nil {
			t.Fatal(err)
		}
		tagsA[op] = tag
	}
	for i := len(ops) - 1; i >= 0; i-- { // reverse registration order
		tag, err := b.Tag(ops[i])
		if err != nil {
			t.Fatal(err)
		}
		if tag != tagsA[ops[i]] {
			t.Fatalf("op %q: rank0 tag %d != rank1 tag %d", ops[i], tagsA[ops[i]], tag)
		}
	}
}

// Steps are frame contents, not tag bits: collectives and point-to-point
// traffic run at a step past the 2^21 ceiling the step-in-tag layout had.
func TestCommunicatorStepsPastOldCeiling(t *testing.T) {
	const n, step = 3, 1<<21 + 7
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		c := NewCommunicator(tr)
		buf := []float32{1, 2, 3, 4}
		if err := c.AllReduce("dense", step, buf); err != nil {
			return err
		}
		if buf[3] != 4*n {
			return fmt.Errorf("allreduce at step %d: %v", step, buf)
		}
		send := make([]*tensor.Sparse, n)
		for p := range send {
			send[p] = &tensor.Sparse{NumRows: 8, Dim: 1, Indices: []int64{int64(tr.Rank())}, Vals: []float32{1}}
		}
		var arena SparseShards
		if err := c.AlltoAllSparse("sparse", step, send, &arena); err != nil {
			return err
		}
		if got := arena.Merged().Indices; len(got) != n {
			return fmt.Errorf("alltoall at step %d: %d rows, want %d", step, len(got), n)
		}
		if tr.Rank() == 0 {
			return c.Send("p2p", step, 1, 42)
		}
		if tr.Rank() == 1 {
			if v, err := c.Recv("p2p", step, 0); err != nil || v != 42 {
				return fmt.Errorf("recv at step %d: %v, %v", step, v, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A schedule divergence — the sender at one step, the receiver at another —
// fails at once with ErrStepMismatch instead of waiting out the timeout.
func TestCommunicatorStepMismatchFailsFast(t *testing.T) {
	w, err := comm.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetRecvTimeout(5 * time.Second)
	if err := NewCommunicator(w.Rank(0)).Send("op", 3, 1, 1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = NewCommunicator(w.Rank(1)).Recv("op", 4, 0)
	if !errors.Is(err, ErrStepMismatch) {
		t.Fatalf("err = %v, want ErrStepMismatch", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("mismatch took %v to surface", d)
	}
}

func TestCommunicatorAllReduceMatchesLegacy(t *testing.T) {
	const n, m = 4, 1003
	want := make([]float32, m)
	bufs := make([][]float32, n)
	for r := 0; r < n; r++ {
		rng := rand.New(rand.NewSource(int64(r + 1)))
		bufs[r] = make([]float32, m)
		for i := range bufs[r] {
			bufs[r][i] = rng.Float32() - 0.5
			want[i] += bufs[r][i]
		}
	}
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		c := NewCommunicator(tr)
		return c.AllReduce("grad", 3, bufs[tr.Rank()])
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		for i := range want {
			if diff := bufs[r][i] - want[i]; diff > 1e-4 || diff < -1e-4 {
				t.Fatalf("rank %d elem %d: got %g want %g", r, i, bufs[r][i], want[i])
			}
		}
	}
}

// TestChunkedAllReduceEqualsUnchunked is the satellite property test: for
// random world sizes, buffer lengths, and ChunkBytes from one element up to
// the whole buffer, the chunk-pipelined ring AllReduce must produce exactly
// the unchunked result on every rank. Chunking splits element ranges, never
// the summation order, so the comparison is bitwise.
func TestChunkedAllReduceEqualsUnchunked(t *testing.T) {
	prop := func(seed int64, nRaw, mRaw, chunkRaw uint8) bool {
		n := 2 + int(nRaw)%4   // world size 2..5
		m := 1 + int(mRaw)%257 // buffer length 1..257
		rng := rand.New(rand.NewSource(seed))
		// ChunkBytes ∈ {1 element … whole buffer}.
		chunkBytes := (1 + int(chunkRaw)%m) * tensor.BytesPerElem

		ref := make([][]float32, n)
		chunked := make([][]float32, n)
		for r := 0; r < n; r++ {
			ref[r] = make([]float32, m)
			for i := range ref[r] {
				ref[r][i] = rng.Float32()*2 - 1
			}
			chunked[r] = append([]float32(nil), ref[r]...)
		}
		if err := comm.RunRanks(n, func(tr comm.Transport) error {
			return NewCommunicator(tr).AllReduce("prop", 0, ref[tr.Rank()])
		}); err != nil {
			t.Logf("unchunked: %v", err)
			return false
		}
		if err := comm.RunRanks(n, func(tr comm.Transport) error {
			c := NewCommunicator(tr, WithChunkBytes(chunkBytes))
			return c.AllReduce("prop", 0, chunked[tr.Rank()])
		}); err != nil {
			t.Logf("chunked: %v", err)
			return false
		}
		for r := 0; r < n; r++ {
			for i := range ref[r] {
				if ref[r][i] != chunked[r][i] {
					t.Logf("n=%d m=%d chunkBytes=%d rank %d elem %d: %g != %g",
						n, m, chunkBytes, r, i, chunked[r][i], ref[r][i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCommunicatorReduceScatterChunked(t *testing.T) {
	const n, m = 4, 41
	want := make([]float32, m)
	bufs := make([][]float32, n)
	for r := 0; r < n; r++ {
		bufs[r] = make([]float32, m)
		for i := range bufs[r] {
			bufs[r][i] = float32(r*m + i)
			want[i] += bufs[r][i]
		}
	}
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		c := NewCommunicator(tr, WithChunkBytes(3*tensor.BytesPerElem))
		if err := c.ReduceScatterBlocks("rs", 0, bufs[tr.Rank()]); err != nil {
			return err
		}
		lo, hi := c.ChunkOf(m)
		for i := lo; i < hi; i++ {
			if bufs[tr.Rank()][i] != want[i] {
				t.Errorf("rank %d elem %d: got %g want %g", tr.Rank(), i, bufs[tr.Rank()][i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCommunicatorSparseAllToAllShardMismatch is the sparse AlltoAll's
// error-path test: a shard slice whose length differs from the world size
// must be rejected before any message is sent.
func TestCommunicatorSparseAllToAllShardMismatch(t *testing.T) {
	const n = 3
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		c := NewCommunicator(tr)
		shards := make([]*tensor.Sparse, n-1) // one short
		for i := range shards {
			s, err := tensor.NewSparse(4, 2, []int64{0}, make([]float32, 2))
			if err != nil {
				return err
			}
			shards[i] = s
		}
		var arena SparseShards
		err := c.AlltoAllSparse("emb/grad", 0, shards, &arena)
		if err == nil {
			t.Error("mismatched shard count must fail")
			return nil
		}
		if !strings.Contains(err.Error(), "send parts") {
			t.Errorf("unexpected error: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommunicatorSparseRoundTrip(t *testing.T) {
	const n = 3
	results := make([]*tensor.Sparse, n)
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		c := NewCommunicator(tr)
		local, err := tensor.NewSparse(6, 2, []int64{int64(tr.Rank())},
			[]float32{float32(tr.Rank()), 1})
		if err != nil {
			return err
		}
		got, err := c.SparseAllGather("emb/grad", 5, local)
		if err != nil {
			return err
		}
		results[tr.Rank()] = got
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range results {
		if s.NNZ() != n {
			t.Fatalf("rank %d gathered %d rows, want %d", r, s.NNZ(), n)
		}
	}
}

func TestCommunicatorGenericExchanges(t *testing.T) {
	const n = 4
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		c := NewCommunicator(tr)
		r := tr.Rank()
		gathered, err := AllGatherVia(c, "tokens", 0, []int64{int64(r)})
		if err != nil {
			return err
		}
		for p, v := range gathered {
			if len(v) != 1 || v[0] != int64(p) {
				t.Errorf("rank %d allgather slot %d = %v", r, p, v)
			}
		}
		send := make([][]int64, n)
		for p := range send {
			send[p] = []int64{int64(r*10 + p)}
		}
		routed, err := AllToAllVia(c, "route", 0, send)
		if err != nil {
			return err
		}
		for p, v := range routed {
			if len(v) != 1 || v[0] != int64(p*10+r) {
				t.Errorf("rank %d alltoall slot %d = %v", r, p, v)
			}
		}
		atRoot, err := GatherVia(c, "stats", 0, 0, r)
		if err != nil {
			return err
		}
		if r == 0 {
			for p, v := range atRoot {
				if v != p {
					t.Errorf("gather slot %d = %d", p, v)
				}
			}
		} else if atRoot != nil {
			t.Errorf("rank %d: non-root gather must return nil", r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCommunicatorConcurrentCollectives exercises the buffer pool from
// concurrent goroutines per rank — the EmbRace pattern of a background
// delayed exchange overlapping the foreground step. Run under -race this
// also certifies the pool is race-clean (satellite CI target).
func TestCommunicatorConcurrentCollectives(t *testing.T) {
	const n, m, rounds = 3, 129, 8
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		c := NewCommunicator(tr, WithChunkBytes(16*tensor.BytesPerElem))
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		for _, op := range []string{"fg/grad", "bg/delayed"} {
			wg.Add(1)
			go func(op string) {
				defer wg.Done()
				for step := 0; step < rounds; step++ {
					buf := make([]float32, m)
					for i := range buf {
						buf[i] = 1
					}
					if err := c.AllReduce(op, step, buf); err != nil {
						errs <- err
						return
					}
					for i := range buf {
						if buf[i] != n {
							errs <- errTest{op, step, i, buf[i]}
							return
						}
					}
				}
			}(op)
		}
		wg.Wait()
		close(errs)
		return <-errs
	})
	if err != nil {
		t.Fatal(err)
	}
}

type errTest struct {
	op         string
	step, elem int
	got        float32
}

func (e errTest) Error() string {
	return e.op + ": wrong sum"
}

func TestCommunicatorP2PSendRecv(t *testing.T) {
	const n = 2
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		c := NewCommunicator(tr)
		if tr.Rank() == 0 {
			return c.Send("ctl", 4, 1, []int64{42})
		}
		payload, err := c.Recv("ctl", 4, 0)
		if err != nil {
			return err
		}
		v, ok := payload.([]int64)
		if !ok || v[0] != 42 {
			t.Errorf("payload = %v", payload)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
