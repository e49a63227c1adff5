package strategies

import (
	"math"
	"runtime/debug"
	"sync"
	"testing"

	"embrace/internal/collective"
	"embrace/internal/comm"
	"embrace/internal/compress"
)

// assertTrainingEqual compares two runEmbRaceTraining outcomes bit for bit —
// every rank's loss history and the rank-0 full embedding.
func assertTrainingEqual(t *testing.T, label string, wantLosses, gotLosses [][]float64, wantEmb, gotEmb interface{ Data() []float32 }) {
	t.Helper()
	for r := range wantLosses {
		for s := range wantLosses[r] {
			if math.Float64bits(gotLosses[r][s]) != math.Float64bits(wantLosses[r][s]) {
				t.Fatalf("%s: rank=%d step=%d: loss %v vs %v", label, r, s, gotLosses[r][s], wantLosses[r][s])
			}
		}
	}
	wd, gd := wantEmb.Data(), gotEmb.Data()
	for i := range wd {
		if math.Float32bits(wd[i]) != math.Float32bits(gd[i]) {
			t.Fatalf("%s: embedding diverged at element %d: %v vs %v", label, i, gd[i], wd[i])
		}
	}
}

// Lossless compression extends the chaos equivalence matrix: with the
// delta-varint codec on both the prior and the delayed exchanges, training
// stays bit-identical to the uncompressed fault-free reference — clean and
// under every maskable chaos plan, across world sizes.
func TestEmbRaceCompressedTrainingEquivalenceAcrossWorldSizes(t *testing.T) {
	const steps = 4
	cfg := Config{
		Seed: 3, Vocab: 36, EmbDim: 24, Hidden: 4,
		Optimizer: OptAdam, LR: 0.05, Sched: Sched2D,
	}
	compressed := cfg
	compressed.Codec = compress.DeltaRaw{}
	for _, n := range []int{2, 3, 4, 8} {
		wantLosses, wantEmb := runEmbRaceTraining(t, n, steps, cfg, comm.RunRanks)
		gotLosses, gotEmb := runEmbRaceTraining(t, n, steps, compressed, comm.RunRanks)
		assertTrainingEqual(t, "lossless clean", wantLosses, gotLosses, wantEmb, gotEmb)
		for seed := int64(1); seed <= 3; seed++ {
			run := func(n int, fn func(comm.Transport) error) error {
				return comm.RunRanksChaos(n, comm.MaskableChaosPlan(seed), fn)
			}
			gotLosses, gotEmb := runEmbRaceTraining(t, n, steps, compressed, run)
			assertTrainingEqual(t, "lossless chaos", wantLosses, gotLosses, wantEmb, gotEmb)
		}
	}
}

// Lossy compression is deterministic: the quantization grid depends only on
// the configured bounds and the data, so a chaotic fabric reproduces the
// fault-free lossy run bit for bit.
func TestEmbRaceLossyCompressedDeterministicUnderChaos(t *testing.T) {
	const steps, n = 4, 4
	q, err := compress.NewDualQuant(1e-4, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Seed: 3, Vocab: 36, EmbDim: 24, Hidden: 4,
		Optimizer: OptAdam, LR: 0.05, Sched: Sched2D,
		Codec: q,
	}
	wantLosses, wantEmb := runEmbRaceTraining(t, n, steps, cfg, comm.RunRanks)
	for seed := int64(1); seed <= 3; seed++ {
		run := func(n int, fn func(comm.Transport) error) error {
			return comm.RunRanksChaos(n, comm.MaskableChaosPlan(seed), fn)
		}
		gotLosses, gotEmb := runEmbRaceTraining(t, n, steps, cfg, run)
		assertTrainingEqual(t, "lossy chaos vs lossy clean", wantLosses, gotLosses, wantEmb, gotEmb)
	}
}

// measureTwoRankStepAllocs is the two-rank sibling of measureStepAllocs:
// single-rank worlds elide every send, so only a real multi-rank world
// pushes shards through the codec. Rank 1 runs the exact call count
// AllocsPerRun issues on rank 0 (one warm-up plus the measured runs) to stay
// in lockstep; GC is parked so sync.Pool contents survive the measurement,
// and the receive deadline is off so no timer is made when a receive blocks.
func measureTwoRankStepAllocs(t *testing.T, cfg Config) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warm, runs = 3, 30
	var got float64
	var mu sync.Mutex
	err := comm.RunRanks(2, func(tr comm.Transport) error {
		tr.(comm.TimeoutSetter).SetRecvTimeout(0)
		r := tr.Rank()
		w, err := NewWorker(EmbRace, collective.NewCommunicator(tr), cfg, nil)
		if err != nil {
			return err
		}
		step := 0
		do := func() {
			windows, targets := batchFor(r, step, cfg.Vocab)
			nextWindows, _ := batchFor(r, step+1, cfg.Vocab)
			if _, err := w.Step(step, windows, targets, flatten(nextWindows)); err != nil {
				panic(err)
			}
			step++
		}
		for i := 0; i < warm; i++ {
			do()
		}
		if r == 0 {
			n := testing.AllocsPerRun(runs, do)
			mu.Lock()
			got = n
			mu.Unlock()
			return nil
		}
		for i := 0; i < 1+runs; i++ {
			do()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// The codec path must hold the steady-state allocation line: a compressed
// two-rank step allocates no more than the uncompressed step it replaces
// (both ship a pooled header and one pooled payload per non-empty stream),
// give or take the buffers the pools fail to recycle. A two-rank step of
// this model draws pooledGetsPerStep buffers from the communicators' pools,
// on either path. Under the race detector sync.Pool drops a quarter of its
// Puts at random, and a get then costs 0.75 allocations on average (see
// TestAlltoAllSparseCodecSteadyStateAllocs), so either run may pay up to
// one per get more than the other; without it the pools rarely miss and the
// codec count sits at or just below the raw one.
func TestEmbRaceCompressedStepAllocParity(t *testing.T) {
	const pooledGetsPerStep = 11
	base := Config{
		Seed: 3, Vocab: 36, EmbDim: 8, Hidden: 4,
		Optimizer: OptAdam, LR: 0.05, Sched: Sched2D,
	}
	raw := measureTwoRankStepAllocs(t, base)
	q, err := compress.NewDualQuant(1e-4, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		codec collective.SparseCodec
	}{{"delta-raw", compress.DeltaRaw{}}, {"dualq", q}} {
		cfg := base
		cfg.Codec = tc.codec
		got := measureTwoRankStepAllocs(t, cfg)
		if got > raw+pooledGetsPerStep {
			t.Errorf("%s: compressed step makes %v allocs, raw step %v + %d pooled gets — codec path must not regress", tc.name, got, raw, pooledGetsPerStep)
		} else {
			t.Logf("%s: %v allocs/step (raw %v)", tc.name, got, raw)
		}
	}
}
