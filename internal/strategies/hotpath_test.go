package strategies

import (
	"math"
	"sync"
	"testing"

	"embrace/internal/collective"
	"embrace/internal/comm"
	"embrace/internal/tensor"
)

// batchFor builds rank r's deterministic batch for step s: two windows and
// their targets, all derived arithmetically so every world size and chaos
// seed sees the same data.
func batchFor(r, s, vocab int) ([][]int64, []int64) {
	v := int64(vocab)
	base := int64(r*7+s*13) % v
	windows := [][]int64{
		{base, (base + 3) % v, (base + 5) % v, (base + 5) % v},
		{(base + 1) % v, (base + 8) % v, (base + 2) % v},
	}
	targets := []int64{(base + 2) % v, (base + 11) % v}
	return windows, targets
}

func flatten(windows [][]int64) []int64 {
	var out []int64
	for _, w := range windows {
		out = append(out, w...)
	}
	return out
}

// runEmbRaceTraining drives `steps` EmbRace steps on every rank of an n-rank
// world under the given runner and returns the per-rank loss history plus
// rank 0's final gathered embedding table.
func runEmbRaceTraining(t *testing.T, n, steps int, cfg Config, run func(int, func(comm.Transport) error) error) ([][]float64, *tensor.Dense) {
	t.Helper()
	losses := make([][]float64, n)
	var emb *tensor.Dense
	var mu sync.Mutex
	err := run(n, func(tr comm.Transport) error {
		r := tr.Rank()
		w, err := NewWorker(EmbRace, collective.NewCommunicator(tr), cfg, nil)
		if err != nil {
			return err
		}
		hist := make([]float64, 0, steps)
		for s := 0; s < steps; s++ {
			windows, targets := batchFor(r, s, cfg.Vocab)
			nextWindows, _ := batchFor(r, s+1, cfg.Vocab)
			stats, err := w.Step(s, windows, targets, flatten(nextWindows))
			if err != nil {
				return err
			}
			hist = append(hist, stats.Loss)
		}
		full, err := w.FullEmbedding()
		if err != nil {
			return err
		}
		mu.Lock()
		losses[r] = hist
		if r == 0 {
			emb = full
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return losses, emb
}

// The rebuilt hot path (arena exchange, self-send elision, reused scratch)
// must be invisible to training: under every maskable chaos plan, every world
// size trains bit-identically to a fault-free world. Adam + Sched2D is the
// deepest path — split updates, the modified step counter, and the background
// delayed exchange all in play.
func TestEmbRaceChaosTrainingEquivalenceAcrossWorldSizes(t *testing.T) {
	const steps = 4
	cfg := Config{
		Seed: 3, Vocab: 36, EmbDim: 24, Hidden: 4,
		Optimizer: OptAdam, LR: 0.05, Sched: Sched2D,
	}
	for _, n := range []int{2, 3, 4, 8} {
		wantLosses, wantEmb := runEmbRaceTraining(t, n, steps, cfg, comm.RunRanks)
		for seed := int64(1); seed <= 3; seed++ {
			run := func(n int, fn func(comm.Transport) error) error {
				return comm.RunRanksChaos(n, comm.MaskableChaosPlan(seed), fn)
			}
			gotLosses, gotEmb := runEmbRaceTraining(t, n, steps, cfg, run)
			for r := 0; r < n; r++ {
				for s := 0; s < steps; s++ {
					if math.Float64bits(gotLosses[r][s]) != math.Float64bits(wantLosses[r][s]) {
						t.Fatalf("n=%d seed=%d rank=%d step=%d: loss %v under chaos, %v clean",
							n, seed, r, s, gotLosses[r][s], wantLosses[r][s])
					}
				}
			}
			wd, gd := wantEmb.Data(), gotEmb.Data()
			for i := range wd {
				if math.Float32bits(wd[i]) != math.Float32bits(gd[i]) {
					t.Fatalf("n=%d seed=%d: embedding diverged at element %d: %v vs %v",
						n, seed, i, gd[i], wd[i])
				}
			}
		}
	}
}

// measureStepAllocs runs a single-rank EmbRace world, warms the scratch
// buffers up, and returns the steady-state allocations per Step call.
func measureStepAllocs(t *testing.T, cfg Config) float64 {
	t.Helper()
	var got float64
	err := comm.RunRanks(1, func(tr comm.Transport) error {
		w, err := NewWorker(EmbRace, collective.NewCommunicator(tr), cfg, nil)
		if err != nil {
			return err
		}
		step := 0
		do := func() {
			windows, targets := batchFor(0, step, cfg.Vocab)
			nextWindows, _ := batchFor(0, step+1, cfg.Vocab)
			if _, err := w.Step(step, windows, targets, flatten(nextWindows)); err != nil {
				panic(err)
			}
			step++
		}
		for i := 0; i < 3; i++ { // grow every buffer to its high-water mark
			do()
		}
		got = testing.AllocsPerRun(30, do)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// Steady-state alloc budgets for a full EmbRace step. The sparse hot path —
// gradient build, column packing, split, exchange, coalesce, update — now
// allocates nothing; what remains is the step's fixed overhead (collective
// out-slices, trunk gradient tensors, the per-step background goroutine and
// its join channel). The budgets are regression tripwires a little above the
// measured counts: reintroducing even one per-row or per-shard allocation in
// the sparse path shows up as tens of allocations and trips them.
func TestEmbRaceStepSteadyStateAllocBudget(t *testing.T) {
	base := Config{
		Seed: 3, Vocab: 36, EmbDim: 8, Hidden: 4,
		Optimizer: OptAdam, LR: 0.05,
	}
	noSched := base
	if got := measureStepAllocs(t, noSched); got > 80 {
		t.Errorf("no-sched steady-state step makes %v allocations, budget 80", got)
	}
	sched := base
	sched.Sched = Sched2D
	if got := measureStepAllocs(t, sched); got > 90 {
		t.Errorf("sched2d steady-state step makes %v allocations, budget 90", got)
	}
}
