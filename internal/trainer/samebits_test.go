package trainer

import (
	"fmt"
	"testing"

	"embrace/internal/strategies"
)

// Same seed ⇒ same bits, for every strategy: repeated runs of one job must
// agree to the last bit in every loss, accuracy and final parameter, which
// is what the facade's Seed promises. The parameter-server baselines must
// also equal, bit for bit, the collective they reduce to once each rank hosts
// its own server shard: BytePS to HorovodAllReduce (one ring pass: the
// reduce-scatter is the push, the all-gather the pull) and Parallax to
// HorovodAllGather (a row's owner sums its gradient in sender-rank order,
// the order of the all-gather's concatenation). EmbDim 24 divides every
// world size.
func TestSameSeedSameBits(t *testing.T) {
	const runs = 5
	twins := []struct{ ps, collective strategies.Name }{
		{strategies.BytePS, strategies.HorovodAllReduce},
		{strategies.Parallax, strategies.HorovodAllGather},
	}
	for _, opt := range []strategies.OptimizerKind{strategies.OptSGD, strategies.OptAdam} {
		for _, n := range []int{2, 3, 4, 8} {
			first := map[strategies.Name]*Result{}
			for _, name := range strategies.AllNames() {
				t.Run(fmt.Sprintf("%s/N=%d/%s", opt, n, name), func(t *testing.T) {
					job := testJob(name, n)
					job.Model.EmbDim = 24
					job.Model.Optimizer = opt
					if opt == strategies.OptAdam {
						job.Model.LR = 0.01
					}
					ref, err := Run(job)
					if err != nil {
						t.Fatal(err)
					}
					for i := 1; i < runs; i++ {
						res, err := Run(job)
						if err != nil {
							t.Fatal(err)
						}
						sameResult(t, fmt.Sprintf("run %d vs run 0", i), ref, res)
					}
					first[name] = ref
				})
			}
			for _, tw := range twins {
				t.Run(fmt.Sprintf("%s/N=%d/%s=%s", opt, n, tw.ps, tw.collective), func(t *testing.T) {
					ps, coll := first[tw.ps], first[tw.collective]
					if ps == nil || coll == nil {
						t.Skip("a run of the pair failed above")
					}
					sameResult(t, string(tw.ps), coll, ps)
				})
			}
		}
	}
}
