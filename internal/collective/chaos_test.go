package collective

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"embrace/internal/comm"
)

// The chaos property suite: every collective the Communicator offers, run
// over a fault-injecting fabric sweeping seeds, must produce results
// bit-identical to the fault-free run. The maskable plan duplicates, delays,
// reorders and transiently drops messages; sequence framing and bounded
// retry in the Communicator must absorb all of it.

// chaosSeeds returns the seed sweep. EMBRACE_CHAOS_SEED offsets the whole
// sweep so CI can run disjoint seed ranges without editing the test.
func chaosSeeds(n int) []int64 {
	base := int64(1)
	if s := os.Getenv("EMBRACE_CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			base = v
		}
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}

// chaosSignature runs every collective op on tr — flat ring AllReduce,
// chunk-pipelined ring AllReduce, Gather, AllGather, AllToAll and a
// chunk-pipelined two-block AllReduceBlocks, each over two steps — and
// returns the concatenation of every result this rank observed. Two fabrics
// agree iff their signatures are bit-identical on every rank.
func chaosSignature(tr comm.Transport) ([]float32, error) {
	n, r := tr.Size(), tr.Rank()
	plain := NewCommunicator(tr)
	chunked := NewCommunicator(tr, WithChunkBytes(8)) // 2-element segments
	var sig []float32

	const m = 23 // odd, so ring chunks and segments come out uneven
	mk := func(k, step int) []float32 {
		buf := make([]float32, m)
		for i := range buf {
			buf[i] = float32(r+1) * float32(i+1) / float32(k+step+1)
		}
		return buf
	}

	for step := 0; step < 2; step++ {
		buf := mk(1, step)
		if err := plain.AllReduce("chaos/allreduce", step, buf); err != nil {
			return nil, fmt.Errorf("allreduce: %w", err)
		}
		sig = append(sig, buf...)

		buf = mk(2, step)
		if err := chunked.AllReduce("chaos/ring-chunked", step, buf); err != nil {
			return nil, fmt.Errorf("chunked allreduce: %w", err)
		}
		sig = append(sig, buf...)

		gathered, err := GatherVia(plain, "chaos/gather", step, step%n, mk(3, step))
		if err != nil {
			return nil, fmt.Errorf("gather: %w", err)
		}
		for _, p := range gathered {
			sig = append(sig, p...)
		}

		parts, err := AllGatherVia(plain, "chaos/allgather", step, mk(4, step))
		if err != nil {
			return nil, fmt.Errorf("allgather: %w", err)
		}
		for _, p := range parts {
			sig = append(sig, p...)
		}

		send := make([][]float32, n)
		for p := range send {
			send[p] = []float32{float32(r*n+p) + 0.25, float32(step) + 0.5}
		}
		got, err := AllToAllVia(plain, "chaos/alltoall", step, send)
		if err != nil {
			return nil, fmt.Errorf("alltoall: %w", err)
		}
		for _, p := range got {
			sig = append(sig, p...)
		}

		buf, short := mk(5, step), mk(6, step)[:3]
		if err := chunked.AllReduceBlocks("chaos/blocks", step, buf, short); err != nil {
			return nil, fmt.Errorf("allreduce blocks: %w", err)
		}
		sig = append(append(sig, buf...), short...)
	}
	return sig, nil
}

// gatherSignatures runs chaosSignature on every rank of the given world and
// returns the per-rank signatures.
func gatherSignatures(mkRank func(i int) comm.Transport, n int) ([][]float32, error) {
	sigs := make([][]float32, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sigs[i], errs[i] = chaosSignature(mkRank(i))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sigs, nil
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// waitNoLeak polls until the goroutine count settles back to the baseline.
func waitNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestChaosCollectivesBitIdentical(t *testing.T) {
	sizes := []int{2, 3, 4, 8}
	seeds := chaosSeeds(20)
	before := runtime.NumGoroutine()

	for _, n := range sizes {
		// Fault-free reference.
		w, err := comm.NewWorld(n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := gatherSignatures(w.Rank, n)
		w.Close()
		if err != nil {
			t.Fatalf("size %d reference: %v", n, err)
		}

		var totalInjected int64
		for _, seed := range seeds {
			cw, err := comm.NewChaosWorld(n, comm.MaskableChaosPlan(seed))
			if err != nil {
				t.Fatal(err)
			}
			got, err := gatherSignatures(cw.Rank, n)
			if err != nil {
				t.Fatalf("size %d seed %d: %v", n, seed, err)
			}
			for _, c := range cw.Injected() {
				totalInjected += c
			}
			cw.Close()
			for r := range want {
				if !bitsEqual(want[r], got[r]) {
					t.Fatalf("size %d seed %d rank %d: chaos result differs from fault-free", n, seed, r)
				}
			}
		}
		if totalInjected == 0 {
			t.Fatalf("size %d: maskable plans injected no faults across %d seeds — the suite proved nothing", n, len(seeds))
		}
	}
	waitNoLeak(t, before)
}

// A rate-1 duplicate rule doubles literally every message; the dedup layer
// must still deliver exactly one copy of each, in order.
func TestChaosEveryMessageDuplicated(t *testing.T) {
	for _, n := range []int{2, 4} {
		plan := comm.FaultPlan{Seed: 11, Rules: []comm.FaultRule{comm.Rule(comm.FaultDuplicate, 1)}}
		w, err := comm.NewWorld(n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := gatherSignatures(w.Rank, n)
		w.Close()
		if err != nil {
			t.Fatal(err)
		}
		cw, err := comm.NewChaosWorld(n, plan)
		if err != nil {
			t.Fatal(err)
		}
		got, err := gatherSignatures(cw.Rank, n)
		cw.Close()
		if err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		for r := range want {
			if !bitsEqual(want[r], got[r]) {
				t.Fatalf("size %d rank %d: result differs under full duplication", n, r)
			}
		}
	}
}

// A rate-1 transient rule makes every fresh send fail at least once; the
// retry budget must mask all of it without a single surfaced error.
func TestChaosEverySendFailsOnce(t *testing.T) {
	plan := comm.FaultPlan{Seed: 7, Rules: []comm.FaultRule{comm.Rule(comm.FaultTransientSend, 1)}}
	w, err := comm.NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gatherSignatures(w.Rank, 4)
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	cw, err := comm.NewChaosWorld(4, plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gatherSignatures(cw.Rank, 4)
	cw.Close()
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if !bitsEqual(want[r], got[r]) {
			t.Fatalf("rank %d: result differs under permanent transient faults", r)
		}
	}
}

// Masked faults must be visible to the observer: the per-op fault counters
// are how a training run reports what it survived.
func TestChaosFaultsReachObserver(t *testing.T) {
	type faultCount struct {
		mu     sync.Mutex
		masked int
	}
	var fc faultCount
	obs := &countingFaultObserver{onFault: func(op, kind string, masked bool) {
		if masked {
			fc.mu.Lock()
			fc.masked++
			fc.mu.Unlock()
		}
	}}
	plan := comm.FaultPlan{Seed: 3, Rules: []comm.FaultRule{comm.Rule(comm.FaultDuplicate, 1)}}
	cw, err := comm.NewChaosWorld(2, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer cw.Close()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewCommunicator(cw.Rank(i), WithObserver(obs))
			buf := []float32{float32(i + 1), 2, 3}
			if err := c.AllReduce("chaos/obs", 0, buf); err != nil {
				t.Errorf("rank %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.masked == 0 {
		t.Fatal("full duplication masked by the Communicator but never reported to the FaultObserver")
	}
}

// countingFaultObserver implements Observer + FaultObserver for tests.
type countingFaultObserver struct {
	onFault func(op, kind string, masked bool)
}

func (o *countingFaultObserver) Sent(string, any, time.Duration)     {}
func (o *countingFaultObserver) Received(string, any, time.Duration) {}
func (o *countingFaultObserver) Fault(op, kind string, masked bool)  { o.onFault(op, kind, masked) }
