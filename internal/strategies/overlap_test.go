package strategies

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"embrace/internal/collective"
	"embrace/internal/comm"
	"embrace/internal/tensor"
)

// zipfBatch is rank r's batch for step s: three six-token windows drawn
// Zipf(1.2, 2) over the vocabulary, a pure function of (seed, r, s) so every
// rank can reconstruct every other rank's batch of any step.
func zipfBatch(seed int64, r, s, vocab int) ([][]int64, []int64) {
	rng := rand.New(rand.NewSource(seed<<20 + int64(r)<<10 + int64(s)))
	z := rand.NewZipf(rng, 1.2, 2, uint64(vocab-1))
	windows := make([][]int64, 3)
	targets := make([]int64, len(windows))
	for i := range windows {
		windows[i] = make([]int64, 6)
		for j := range windows[i] {
			windows[i][j] = int64(z.Uint64())
		}
		targets[i] = int64(z.Uint64())
	}
	return windows, targets
}

// overlapConfig is a Sched2D job whose EmbDim divides every tested world size.
func overlapConfig(opt OptimizerKind) Config {
	cfg := validConfig()
	cfg.Vocab = 200
	cfg.EmbDim = 24
	cfg.Optimizer = opt
	cfg.LR = 0.05
	cfg.Sched = Sched2D
	return cfg
}

// runZipfTraining drives `steps` Sched2D steps on every rank of an n-rank
// world over Zipf batches, calling before (when non-nil) ahead of each Step,
// and returns the per-rank losses, rank 0's gathered embedding and rank 0's
// trunk parameters, flattened.
func runZipfTraining(t *testing.T, n, steps int, seed int64, cfg Config, before func(w *embraceWorker, step int) error) ([][]float64, *tensor.Dense, *tensor.Dense) {
	t.Helper()
	losses := make([][]float64, n)
	var emb *tensor.Dense
	var trunk *tensor.Dense
	var mu sync.Mutex
	err := comm.RunRanks(n, func(tr comm.Transport) error {
		r := tr.Rank()
		w := newEmbRaceWorker(collective.NewCommunicator(tr), cfg, nil, nil)
		hist := make([]float64, 0, steps)
		for s := 0; s < steps; s++ {
			if before != nil {
				if err := before(w, s); err != nil {
					return err
				}
			}
			windows, targets := zipfBatch(seed, r, s, cfg.Vocab)
			next, _ := zipfBatch(seed, r, s+1, cfg.Vocab)
			stats, err := w.Step(s, windows, targets, flatten(next))
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
		defer mu.Unlock()
		losses[r] = hist
		if r == 0 {
			emb = full
			var flat []float32
			for _, p := range w.Trunk().Params() {
				flat = append(flat, p.Tensor.Data()...)
			}
			trunk = tensor.NewDense(len(flat))
			copy(trunk.Data(), flat)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return losses, emb, trunk
}

// The invariant late harvest rests on (Algorithm 1): the rows a rank sends
// through step t-1's delayed exchange are rows that no rank's batch t
// contains, so step t's lookup may run before they are applied.
func TestDelayedRowsDisjointFromNextBatch(t *testing.T) {
	const steps = 8
	for _, n := range []int{2, 3, 4, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := overlapConfig(OptAdam)
			var mu sync.Mutex
			delayedRows, priorRows := 0, 0
			// Before step s, the worker's delayed split still holds what
			// step s-1 sent to the background exchange.
			check := func(w *embraceWorker, s int) error {
				if s == 0 {
					return nil
				}
				inBatch := map[int64]bool{}
				for q := 0; q < n; q++ {
					windows, _ := zipfBatch(seed, q, s, cfg.Vocab)
					for _, tok := range flatten(windows) {
						inBatch[tok] = true
					}
				}
				d, p := 0, 0
				for shard := range w.hot.delayed {
					for _, ix := range w.hot.delayed[shard].Indices {
						if inBatch[ix] {
							return fmt.Errorf("rank %d: row %d delayed at step %d is looked up at step %d",
								w.cm.Rank(), ix, s-1, s)
						}
					}
					d += len(w.hot.delayed[shard].Indices)
					p += len(w.hot.prior[shard].Indices)
				}
				mu.Lock()
				delayedRows += d
				priorRows += p
				mu.Unlock()
				return nil
			}
			runZipfTraining(t, n, steps, seed, cfg, check)
			if delayedRows == 0 || priorRows == 0 {
				t.Fatalf("n=%d seed %d: %d delayed and %d prior rows — the split was never exercised", n, seed, delayedRows, priorRows)
			}
		}
	}
}

// Late dense join must be invisible to training. The early order — the dense
// lane joined before Step returns, the order before the join moved — is
// reproduced by joining it explicitly ahead of each Step, which leaves the
// step's own late join nothing to wait for.
func TestLateDenseJoinEqualsEarlyJoin(t *testing.T) {
	const steps = 6
	early := func(w *embraceWorker, s int) error { return w.dense.join() }
	for _, sched := range []SchedMode{Sched2D, SchedNone} {
		for _, opt := range []OptimizerKind{OptAdam, OptSGD} {
			for _, n := range []int{2, 3, 4, 8} {
				cfg := overlapConfig(opt)
				cfg.Sched = sched
				wantLosses, wantEmb, wantTrunk := runZipfTraining(t, n, steps, 11, cfg, early)
				gotLosses, gotEmb, gotTrunk := runZipfTraining(t, n, steps, 11, cfg, nil)
				label := fmt.Sprintf("sched %d %s n=%d late vs early dense join", sched, opt, n)
				assertTrainingEqual(t, label, wantLosses, gotLosses, wantEmb, gotEmb)
				assertTrainingEqual(t, label+", trunk", nil, nil, wantTrunk, gotTrunk)
			}
		}
	}
}

// Late harvest must be invisible to training. The early order — join and
// apply the delayed exchange as a step's first act, the order before the
// harvest moved — is reproduced by harvesting explicitly ahead of each Step,
// which leaves the step's own late harvest nothing to do.
func TestLateHarvestEqualsEarlyHarvest(t *testing.T) {
	const steps = 6
	early := func(w *embraceWorker, s int) error { return w.harvestDelayed(s) }
	for _, opt := range []OptimizerKind{OptAdam, OptSGD} {
		for _, n := range []int{2, 3, 4, 8} {
			cfg := overlapConfig(opt)
			wantLosses, wantEmb, wantTrunk := runZipfTraining(t, n, steps, 7, cfg, early)
			gotLosses, gotEmb, gotTrunk := runZipfTraining(t, n, steps, 7, cfg, nil)
			label := fmt.Sprintf("%s n=%d late vs early harvest", opt, n)
			assertTrainingEqual(t, label, wantLosses, gotLosses, wantEmb, gotEmb)
			assertTrainingEqual(t, label+", trunk", nil, nil, wantTrunk, gotTrunk)
		}
	}
}

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
