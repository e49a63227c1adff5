package strategies

// Round-level tests of the parameter-server baselines. Every rank hosts one
// server shard, so a PS round is a collective: BytePS's dense push and pull
// are DenseShards' reduce-scatter and all-gather, and Parallax's sparse push
// sends each gradient row to its owner. These tests pin the synchronous
// semantics a PS round must keep.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"embrace/internal/collective"
	"embrace/internal/comm"
	"embrace/internal/nn"
	"embrace/internal/tensor"
)

// One dense round: every worker pushes its gradient, the servers apply the
// sum once, and every worker pulls the same updated parameter.
func TestDenseSynchronousRound(t *testing.T) {
	const workers = 4
	err := comm.RunRanks(workers, func(tr comm.Transport) error {
		cm := collective.NewCommunicator(tr)
		table := tensor.Full(1, 3)
		srv := NewDenseShards(cm, OptSGD, 0.1,
			[]nn.NamedParam{{Name: "table", Tensor: table}})
		g := tensor.Full(float32(tr.Rank()+1), 3) // sum across workers = 10
		if err := srv.Push("test/ps", 0, g); err != nil {
			return err
		}
		if err := srv.Pull("test/ps", 0); err != nil {
			return err
		}
		// p = 1 - 0.1*10 = 0.
		for i, v := range table.Data() {
			if v != 0 {
				return fmt.Errorf("rank %d: param[%d] = %v, want 0", tr.Rank(), i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Training through the sparse PS must produce the same table as worker-side
// aggregation (AllGather-then-update) given the same batches — the
// synchronous-equivalence property all baselines share. A row's owner sums
// its gradient rows in sender-rank order, the order of the all-gather's
// concatenation, so the tables agree to the last bit on every rank.
func TestSparseEqualsAllGatherSemantics(t *testing.T) {
	const workers, rounds, vocab = 4, 3, 8
	for _, opt := range []OptimizerKind{OptSGD, OptAdam} {
		cfg := Config{Seed: 2, Vocab: vocab, EmbDim: 4, Hidden: 3, Optimizer: opt, LR: 0.05}
		ps := trainTables(t, Parallax, cfg, workers, rounds)
		ref := trainTables(t, HorovodAllGather, cfg, workers, rounds)
		for r := range ps {
			want, got := ref[r].Data(), ps[r].Data()
			for i := range want {
				if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
					t.Fatalf("%s rank %d: element %d: PS %v, AllGather %v (max diff %v)",
						opt, r, i, got[i], want[i], ps[r].MaxAbsDiff(ref[r]))
				}
			}
		}
	}
}

// trainTables runs `rounds` steps of the named strategy on a world of
// `workers` ranks and returns every rank's final embedding table. Each rank's
// batches are drawn from a seed of (round, rank), so two strategies see the
// same batches; the small vocabulary makes ranks push overlapping rows.
func trainTables(t *testing.T, name Name, cfg Config, workers, rounds int) []*tensor.Dense {
	t.Helper()
	tables := make([]*tensor.Dense, workers)
	var mu sync.Mutex
	err := comm.RunRanks(workers, func(tr comm.Transport) error {
		w, err := NewWorker(name, collective.NewCommunicator(tr), cfg, nil)
		if err != nil {
			return err
		}
		for r := 0; r < rounds; r++ {
			rng := rand.New(rand.NewSource(int64(100*r + tr.Rank())))
			windows := make([][]int64, 1+rng.Intn(3))
			targets := make([]int64, len(windows))
			for i := range windows {
				windows[i] = make([]int64, 1+rng.Intn(4))
				for j := range windows[i] {
					windows[i][j] = int64(rng.Intn(cfg.Vocab))
				}
				targets[i] = int64(rng.Intn(cfg.Vocab))
			}
			if _, err := w.Step(r, windows, targets, nil); err != nil {
				return err
			}
		}
		table, err := w.FullEmbedding()
		if err != nil {
			return err
		}
		mu.Lock()
		tables[tr.Rank()] = table.Clone()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return tables
}
