package strategies

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"embrace/internal/collective"
	"embrace/internal/comm"
	"embrace/internal/nn"
	"embrace/internal/optim"
	"embrace/internal/tensor"
)

// randBlocks returns one dense block per length, filled from seed.
func randBlocks(seed int64, lens []int) []*tensor.Dense {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tensor.Dense, len(lens))
	for i, n := range lens {
		out[i] = tensor.NewDense(n)
		for j := range out[i].Data() {
			out[i].Data()[j] = (rng.Float32() - 0.5) * float32(int(1)<<rng.Intn(6))
		}
	}
	return out
}

// The ring-sharded optimizer must leave every rank's parameters bit-identical
// to a replicated optimizer stepped on the all-reduced gradient, for block
// lengths that do not divide by the world size and blocks shorter than it
// (ranks with empty chunks), through segments that straddle blocks.
func TestDenseShardsMatchReplicatedOptimizer(t *testing.T) {
	const steps = 4
	for _, kind := range []OptimizerKind{OptAdam, OptSGD} {
		for _, n := range []int{1, 2, 3, 4, 8} {
			lens := []int{0, 1, n - 1, n + 1, 5, 23, 257}
			err := comm.RunRanks(n, func(tr comm.Transport) error {
				cm := collective.NewCommunicator(tr, collective.WithChunkBytes(8*tensor.BytesPerElem))
				replicated, sharded := randBlocks(1, lens), randBlocks(1, lens)
				opts := make([]optim.Optimizer, len(lens))
				params := make([]nn.NamedParam, len(lens))
				for i := range lens {
					opts[i] = newOptimizer(Config{Optimizer: kind, LR: 0.01}, replicated[i])
					params[i] = nn.NamedParam{Name: fmt.Sprint("p", i), Tensor: sharded[i]}
				}
				shards := NewDenseShards(cm, kind, 0.01, params)
				for s := 0; s < steps; s++ {
					grads := randBlocks(int64(100*s+tr.Rank()), lens)
					bufs := make([][]float32, len(lens))
					clones := make([]*tensor.Dense, len(lens))
					for i, g := range grads {
						clones[i] = g.Clone()
						bufs[i] = clones[i].Data()
					}
					if err := cm.AllReduceBlocks("test/replicated", s, bufs...); err != nil {
						return err
					}
					for i, o := range opts {
						if err := o.StepDense(clones[i]); err != nil {
							return err
						}
					}
					if err := shards.Step("test/sharded", s, grads...); err != nil {
						return err
					}
					for i := range lens {
						want, got := replicated[i].Data(), sharded[i].Data()
						for j := range want {
							if math.Float32bits(want[j]) != math.Float32bits(got[j]) {
								return fmt.Errorf("%s n=%d rank %d step %d: block %d (len %d) element %d: sharded %v, replicated %v",
									kind, n, tr.Rank(), s, i, lens[i], j, got[j], want[j])
							}
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
