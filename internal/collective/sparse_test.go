package collective

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"embrace/internal/comm"
	"embrace/internal/tensor"
)

// randShards builds rank r's deterministic send shards for an n-rank
// exchange: per destination a random (possibly empty) [rows x dim] sparse
// shard, including deliberate empties so the zero-row header path is hit.
func randShards(seed int64, r, n, rows, dim int) []*tensor.Sparse {
	rng := rand.New(rand.NewSource(seed + int64(r)*1013))
	out := make([]*tensor.Sparse, n)
	for p := 0; p < n; p++ {
		nnz := rng.Intn(7)
		if rng.Intn(4) == 0 {
			nnz = 0
		}
		idx := make([]int64, nnz)
		vals := make([]float32, nnz*dim)
		for i := range idx {
			idx[i] = rng.Int63n(int64(rows))
		}
		for i := range vals {
			vals[i] = rng.Float32()*2 - 1
		}
		s, err := tensor.NewSparse(rows, dim, idx, vals)
		if err != nil {
			panic(err)
		}
		out[p] = s
	}
	return out
}

func sparseBitsEqual(a, b *tensor.Sparse) bool {
	if a.NumRows != b.NumRows || a.Dim != b.Dim || len(a.Indices) != len(b.Indices) || len(a.Vals) != len(b.Vals) {
		return false
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			return false
		}
	}
	for i := range a.Vals {
		if math.Float32bits(a.Vals[i]) != math.Float32bits(b.Vals[i]) {
			return false
		}
	}
	return true
}

// runAlltoAllSparseEquivalence runs the exchange on every rank of an n-rank
// world and asserts the arena is bit-identical, shard by shard and merged, to
// what the senders built for this rank concatenated in sender order: the
// result of the AllToAllVia + Concat path the arena replaced.
func runAlltoAllSparseEquivalence(t *testing.T, n int, seed int64, run func(int, func(comm.Transport) error) error) {
	t.Helper()
	err := run(n, func(tr comm.Transport) error {
		cm := NewCommunicator(tr)
		send := randShards(seed, tr.Rank(), n, 64, 3)
		want := make([]*tensor.Sparse, n)
		for p := range want {
			want[p] = randShards(seed, p, n, 64, 3)[tr.Rank()]
		}
		wantMerged, err := tensor.Concat(want...)
		if err != nil {
			return err
		}
		var arena SparseShards
		if err := cm.AlltoAllSparse("sparse/arena", 0, send, &arena); err != nil {
			return err
		}
		if !sparseBitsEqual(wantMerged, arena.Merged()) {
			return fmt.Errorf("rank %d: merged arena differs from the senders' shards", tr.Rank())
		}
		var view tensor.Sparse
		for p := 0; p < n; p++ {
			arena.ShardView(p, &view)
			if !sparseBitsEqual(want[p], &view) {
				return fmt.Errorf("rank %d: shard view %d differs", tr.Rank(), p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoAllSparseMatchesLegacyPath(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		for seed := int64(1); seed <= 4; seed++ {
			runAlltoAllSparseEquivalence(t, n, seed, comm.RunRanks)
		}
	}
}

func TestAlltoAllSparseUnderChaos(t *testing.T) {
	// The streams ride the seq-framed self-healing point-to-point, so every
	// maskable fault plan must leave results bit-identical.
	for _, n := range []int{2, 3, 4, 8} {
		for seed := int64(1); seed <= 5; seed++ {
			run := func(n int, fn func(comm.Transport) error) error {
				return comm.RunRanksChaos(n, comm.MaskableChaosPlan(seed), fn)
			}
			runAlltoAllSparseEquivalence(t, n, seed+100, run)
		}
	}
}

func TestAlltoAllSparseOverTCP(t *testing.T) {
	runAlltoAllSparseEquivalence(t, 4, 77, comm.RunRanksTCP)
}

// byteCountObserver tallies the wire traffic per op, element-wise.
type byteCountObserver struct {
	mu        sync.Mutex
	sentRows  int // int64 index elements sent
	sentVals  int // float32 value elements sent
	sentMsgs  int
	headerCnt int
}

func (o *byteCountObserver) Sent(op string, payload any, _ time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sentMsgs++
	switch p := payload.(type) {
	case []int64: // [rows, dim, indices…]
		o.headerCnt++
		o.sentRows += len(p) - 2
	case []float32:
		o.sentVals += len(p)
	}
}

func (o *byteCountObserver) Received(string, any, time.Duration) {}

// Self shards must never be packed or observed: the observer's byte counts
// must equal exactly the non-self shard payloads, and nothing else.
func TestAlltoAllSparseSelfSendElided(t *testing.T) {
	const n, rows, dim = 4, 32, 2
	obs := make([]*byteCountObserver, n)
	sends := make([][]*tensor.Sparse, n)
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		r := tr.Rank()
		o := &byteCountObserver{}
		obs[r] = o
		cm := NewCommunicator(tr, WithObserver(o))
		send := randShards(9, r, n, rows, dim)
		sends[r] = send
		var arena SparseShards
		return cm.AlltoAllSparse("sparse/elide", 0, send, &arena)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		wantRows, wantVals, wantStreams := 0, 0, 0
		for p := 0; p < n; p++ {
			if p == r {
				continue // the self shard must contribute nothing
			}
			wantRows += len(sends[r][p].Indices)
			wantVals += len(sends[r][p].Vals)
			if len(sends[r][p].Indices) > 0 {
				wantStreams++
			}
		}
		o := obs[r]
		if o.headerCnt != n-1 {
			t.Errorf("rank %d: %d headers observed, want %d (one per non-self peer)", r, o.headerCnt, n-1)
		}
		if o.sentRows != wantRows || o.sentVals != wantVals {
			t.Errorf("rank %d: observed %d rows / %d vals on the wire, want %d / %d — self shard leaked into pack",
				r, o.sentRows, o.sentVals, wantRows, wantVals)
		}
		if o.sentMsgs != (n-1)+wantStreams {
			t.Errorf("rank %d: %d messages, want %d", r, o.sentMsgs, (n-1)+wantStreams)
		}
	}
}

// Steady state: after the warm-up call grows the arena and pools to their
// high-water marks, a single-rank exchange (pure arena path, no goroutine
// scheduling noise) allocates nothing.
func TestAlltoAllSparseSteadyStateAllocs(t *testing.T) {
	err := comm.RunRanks(1, func(tr comm.Transport) error {
		cm := NewCommunicator(tr)
		send := randShards(5, 0, 1, 128, 4)
		var arena SparseShards
		step := 0
		do := func() {
			if err := cm.AlltoAllSparse("sparse/allocs", step, send, &arena); err != nil {
				panic(err)
			}
			step++
		}
		do() // warm-up
		if n := testing.AllocsPerRun(50, do); n != 0 {
			return fmt.Errorf("steady-state AlltoAllSparse allocates %v times", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Steady-state alloc budget for a two-rank exchange: with pools and arenas
// warm, GC parked and no receive deadline (whose timer would allocate
// whenever a receive blocks), the exchange allocates its frames' interface
// boxes and whatever the buffer pools fail to recycle. Each rank sends its
// peer a header frame and one value frame, and each frame boxes a SeqFrame
// and its payload: frameBoxes allocations per op over both ranks. Each
// frame's buffer is one pooled get. Under the race detector sync.Pool drops
// a quarter of its Puts at random; a dropped buffer costs two allocations to
// replace (container and slice) and a dropped spare container one, so a get
// costs 0.75 allocations on average there and none otherwise. The budget
// allows one per get, so a count averaged over 50 runs stays inside it on
// both builds.
func TestAlltoAllSparseTwoRankSteadyStateAllocs(t *testing.T) {
	const frameBoxes, pooledGets = 2 * 2 * 2, 2 * 2
	const budget = frameBoxes + pooledGets
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n, warm, runs = 2, 3, 50
	var got float64
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		tr.(comm.TimeoutSetter).SetRecvTimeout(0)
		cm := NewCommunicator(tr)
		send := randShards(77, tr.Rank(), n, 128, 4)
		var arena SparseShards
		step := 0
		do := func() {
			if err := cm.AlltoAllSparse("sparse/allocs2", step, send, &arena); err != nil {
				panic(err)
			}
			step++
		}
		if tr.Rank() == 0 {
			for i := 0; i < warm; i++ {
				do()
			}
			got = testing.AllocsPerRun(runs, do)
			return nil
		}
		// AllocsPerRun performs one warm-up call plus `runs` measured
		// calls; stay in lockstep with rank 0.
		for i := 0; i < warm+1+runs; i++ {
			do()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got > budget {
		t.Errorf("exchange makes %v allocs/op, budget %d", got, budget)
	}
}

// A hostile peer can neither crash the exchange nor slip a row past it:
// rank 1 hand-sends rank 0 a stream whose header has a negative width, a
// negative row count or a value count past int32, or a well-formed stream
// whose one row lies outside rank 0's table (row NumRows, row -1). Rank 0
// must return an error naming rank 1, not panic and not accept the rows. An
// empty stream with a bad width ({0, -1}, {0, 2^40}) passes every later
// check, so only the header's range check stands between it and the
// arena's widths. The two ranks run different code, so each gets its own
// goroutine rather than a rank branch.
func TestAlltoAllSparseRejectsHostileHeader(t *testing.T) {
	const rows, dim = 16, 2
	for _, stream := range [][]any{
		{[]int64{1, -1}}, {[]int64{-1, 2}}, {[]int64{1 << 20, 1 << 12}}, {[]int64{0, -1}}, {[]int64{0, 1 << 40}},
		{[]int64{1, dim, rows}, make([]float32, dim)}, {[]int64{1, dim, -1}, make([]float32, dim)},
	} {
		// The receiver may recycle (and so poison) what it was sent: name
		// the stream before it is sent.
		name := fmt.Sprint(stream[0])
		w, err := comm.NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		warm := func(cm *Communicator, arena *SparseShards) error {
			return cm.AlltoAllSparse("hostile/warm", 0, randShards(3, cm.Rank(), 2, rows, dim), arena)
		}
		hostile := make(chan error, 1)
		go func() {
			cm := NewCommunicator(w.Rank(1))
			var arena SparseShards
			if err := warm(cm, &arena); err != nil {
				hostile <- err
				return
			}
			for _, frame := range stream {
				if err := cm.Send("hostile", 0, 0, frame); err != nil {
					hostile <- err
					return
				}
			}
			hostile <- nil
		}()
		cm := NewCommunicator(w.Rank(0))
		var arena SparseShards
		if err := warm(cm, &arena); err != nil {
			t.Fatal(err)
		}
		err = cm.AlltoAllSparse("hostile", 0, randShards(3, 0, 2, rows, dim), &arena)
		if err == nil || !strings.Contains(err.Error(), "rank 1") {
			t.Errorf("stream %s: got %v, want an error naming rank 1", name, err)
		}
		if err := <-hostile; err != nil {
			t.Errorf("stream %s: hostile peer: %v", name, err)
		}
		w.Close()
	}
}
