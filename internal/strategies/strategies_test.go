package strategies

import (
	"fmt"
	"sync"
	"testing"

	"embrace/internal/collective"
	"embrace/internal/comm"
)

func validConfig() Config {
	return Config{
		Seed:      1,
		Vocab:     30,
		EmbDim:    8,
		Hidden:    4,
		Optimizer: OptSGD,
		LR:        0.1,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := validConfig().Validate(4); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		mutate  func(*Config)
		workers int
	}{
		{func(c *Config) { c.Vocab = 1 }, 4},
		{func(c *Config) { c.EmbDim = 0 }, 4},
		{func(c *Config) { c.Hidden = 0 }, 4},
		{func(c *Config) { c.LR = 0 }, 4},
		{func(c *Config) { c.Optimizer = "rmsprop" }, 4},
		{func(c *Config) {}, 0},
		{func(c *Config) { c.EmbDim = 10 }, 4}, // not divisible
	}
	for i, tc := range cases {
		c := validConfig()
		tc.mutate(&c)
		if err := c.Validate(tc.workers); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestAllNamesCoverFiveStrategies(t *testing.T) {
	names := AllNames()
	if len(names) != 5 {
		t.Fatalf("%d strategies", len(names))
	}
	seen := map[Name]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []Name{BytePS, HorovodAllReduce, HorovodAllGather, Parallax, EmbRace} {
		if !seen[want] {
			t.Fatalf("missing %s", want)
		}
	}
}

func TestNewSharedPerStrategy(t *testing.T) {
	cfg := validConfig()
	for _, name := range AllNames() {
		if _, err := NewShared(name, cfg, 4); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := NewShared("nope", cfg, 4); err == nil {
		t.Fatal("expected unknown-strategy error")
	}
	bad := cfg
	bad.EmbDim = 9
	if _, err := NewShared(EmbRace, bad, 4); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestNewWorkerValidation(t *testing.T) {
	cfg := validConfig()
	err := comm.RunRanks(2, func(tr comm.Transport) error {
		if _, err := NewWorker("nope", collective.NewCommunicator(tr), cfg, nil); err == nil {
			t.Error("expected unknown-strategy error")
		}
		// Every strategy keeps its state on the ranks: nil shared state is
		// fine.
		for _, name := range []Name{HorovodAllGather, Parallax, BytePS} {
			if _, err := NewWorker(name, collective.NewCommunicator(tr), cfg, nil); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Drive a single EmbRace step directly (without the trainer) and verify the
// assembled pooled activations equal a locally computed full-model lookup.
func TestEmbRaceStepMatchesLocalModel(t *testing.T) {
	cfg := validConfig()
	const workers = 4
	windows := map[int][][]int64{
		0: {{1, 2, 3, 4}},
		1: {{5, 6, 7, 8}},
		2: {{9, 9, 1, 2}},
		3: {{3, 3, 3, 3}},
	}
	targets := map[int][]int64{0: {5}, 1: {9}, 2: {4}, 3: {7}}

	losses := make([]float64, workers)
	var mu sync.Mutex
	err := comm.RunRanks(workers, func(tr comm.Transport) error {
		w, err := NewWorker(EmbRace, collective.NewCommunicator(tr), cfg, nil)
		if err != nil {
			return err
		}
		stats, err := w.Step(0, windows[tr.Rank()], targets[tr.Rank()], []int64{1})
		if err != nil {
			return err
		}
		mu.Lock()
		losses[tr.Rank()] = stats.Loss
		mu.Unlock()
		_, err = w.FullEmbedding() // collective; keeps ranks aligned
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Each rank's loss must equal the loss a single-process model computes
	// on that rank's batch from the same seed (the AlltoAll lookup is just
	// a distributed implementation of the same forward pass).
	for r := 0; r < workers; r++ {
		err := comm.RunRanks(1, func(tr comm.Transport) error {
			w, err := NewWorker(HorovodAllGather, collective.NewCommunicator(tr), Config{
				Seed: cfg.Seed, Vocab: cfg.Vocab, EmbDim: cfg.EmbDim, Hidden: cfg.Hidden,
				Optimizer: OptSGD, LR: cfg.LR,
			}, nil)
			if err != nil {
				return err
			}
			stats, err := w.Step(0, windows[r], targets[r], nil)
			if err != nil {
				return err
			}
			if diff := stats.Loss - losses[r]; diff > 1e-5 || diff < -1e-5 {
				t.Errorf("rank %d: embrace loss %v vs local %v", r, losses[r], stats.Loss)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestWorkerStrategyNames(t *testing.T) {
	cfg := validConfig()
	for _, name := range AllNames() {
		sh, err := NewShared(name, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		err = comm.RunRanks(2, func(tr comm.Transport) error {
			w, err := NewWorker(name, collective.NewCommunicator(tr), cfg, sh)
			if err != nil {
				return err
			}
			if w.Strategy() != name {
				t.Errorf("Strategy() = %s, want %s", w.Strategy(), name)
			}
			if w.Trunk() == nil {
				t.Error("nil trunk")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestNoTagCollisionsAcrossStrategies(t *testing.T) {
	// Run every strategy for 3 real steps (EmbRace with 2D scheduling, so
	// the background delayed exchange and the out-of-band FullEmbedding
	// gather both register their ops) and collect every op any run touched.
	// The union must map to distinct tags, and no two (epoch, op) pairs may
	// share a tag. Every run also completes, so each (peer, op) stream
	// passed its per-frame step checks.
	const workers, steps = 2, 3
	cfg := validConfig()
	cfg.Sched = Sched2D
	windows := [][][]int64{{{1, 2, 3, 4}}, {{5, 6, 7, 8}}}
	targets := [][]int64{{5}, {9}}

	var mu sync.Mutex
	ops := map[string]bool{}
	for _, name := range AllNames() {
		sh, err := NewShared(name, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		err = comm.RunRanks(workers, func(tr comm.Transport) error {
			r := tr.Rank()
			cm := collective.NewCommunicator(tr)
			w, err := NewWorker(name, cm, cfg, sh)
			if err != nil {
				return err
			}
			for s := 0; s < steps; s++ {
				if _, err := w.Step(s, windows[r], targets[r], []int64{1, 2}); err != nil {
					return err
				}
			}
			if _, err := w.FullEmbedding(); err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			for _, op := range cm.Ops() {
				ops[op] = true
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if !ops[OpGatherEmb] || !ops[OpEmbDelayed] {
		t.Fatalf("ops %v miss the gather or the delayed exchange", ops)
	}

	w, err := comm.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	seen := map[int]string{}
	for epoch := 0; epoch < 3; epoch++ {
		// One Communicator per plane registers the whole union, so its
		// cross-op collision check sees every pair.
		cm := collective.NewCommunicator(w.Rank(0), collective.WithEpoch(epoch))
		for op := range ops {
			tg, err := cm.Tag(op)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s@%d", op, epoch)
			if prev, ok := seen[tg]; ok {
				t.Fatalf("tag %d shared by %s and %s", tg, prev, key)
			}
			seen[tg] = key
		}
	}
}
