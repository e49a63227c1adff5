package trainer

import (
	"math"
	"testing"

	"embrace/internal/comm"
	"embrace/internal/compress"
	"embrace/internal/data"
	"embrace/internal/strategies"
)

// compressJob is the convergence-suite job for the compression tests:
// EmbDim 24 divides every tested world size {2, 3, 4, 8}, and 2D scheduling
// exercises both the prior and the delayed codec classes.
func compressJob(workers int, seed int64) Job {
	return Job{
		Strategy: strategies.EmbRace,
		Workers:  workers,
		Steps:    4,
		Window:   4,
		Model: strategies.Config{
			Seed:      seed,
			Vocab:     40,
			EmbDim:    24,
			Hidden:    6,
			Optimizer: strategies.OptAdam,
			LR:        0.05,
			Sched:     strategies.Sched2D,
		},
		Data: data.Config{
			VocabSize:      40,
			BatchSentences: 5,
			MaxSeqLen:      8,
			MinSeqLen:      5,
			ZipfS:          1.4,
			ZipfV:          2,
		},
		DataSeed: seed + 1,
	}
}

// Convergence neutrality, lossless: training with the delta-varint codec on
// the embedding AlltoAll is bit-identical — losses, accuracies, embedding
// table, and trunk parameters — to uncompressed training, across world
// sizes and seeds, while the wire actually carries compressed bytes.
func TestLosslessCompressedTrainingBitIdentical(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		for _, seed := range []int64{77, 2026, 31337} {
			ref, err := Run(compressJob(n, seed))
			if err != nil {
				t.Fatalf("n=%d seed=%d raw: %v", n, seed, err)
			}
			job := compressJob(n, seed)
			job.Model.Codec = compress.DeltaRaw{}
			got, err := Run(job)
			if err != nil {
				t.Fatalf("n=%d seed=%d lossless: %v", n, seed, err)
			}
			sameResult(t, "lossless compressed vs raw", ref, got)
			for _, op := range []string{strategies.OpEmbGrad, strategies.OpEmbDelayed} {
				st, ok := got.CommPerOp[op]
				if !ok {
					t.Fatalf("n=%d seed=%d: no traffic recorded for %q", n, seed, op)
				}
				if st.RawBytes == 0 {
					t.Errorf("n=%d seed=%d %s: codec never engaged (RawBytes=0)", n, seed, op)
				}
				if st.WireBytes >= st.RawBytes {
					t.Errorf("n=%d seed=%d %s: wire %d B >= raw %d B — no compression", n, seed, op, st.WireBytes, st.RawBytes)
				}
			}
			if raw := ref.CommPerOp[strategies.OpEmbGrad]; raw.RawBytes != 0 {
				t.Errorf("n=%d seed=%d: uncompressed run reports RawBytes=%d", n, seed, raw.RawBytes)
			}
		}
	}
}

// Convergence neutrality, lossy: dual-level quantized training still learns,
// and its final loss stays within a small relative tolerance of the
// uncompressed run's — the error bounds are tight enough not to disturb
// optimization on this workload.
func TestLossyCompressedTrainingLossWithinTolerance(t *testing.T) {
	const steps = 30
	job := compressJob(4, 77)
	job.Steps = steps
	ref, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	q, err := compress.NewDualQuant(1e-4, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	lossy := compressJob(4, 77)
	lossy.Steps = steps
	lossy.Model.Codec = q
	got, err := Run(lossy)
	if err != nil {
		t.Fatal(err)
	}
	if got.Losses[steps-1] >= got.Losses[0] {
		t.Errorf("lossy run is not learning: loss %g -> %g", got.Losses[0], got.Losses[steps-1])
	}
	refFinal, gotFinal := ref.Losses[steps-1], got.Losses[steps-1]
	if rel := math.Abs(gotFinal-refFinal) / refFinal; rel > 0.02 {
		t.Errorf("lossy final loss %g deviates %.2f%% from uncompressed %g (tolerance 2%%)", gotFinal, rel*100, refFinal)
	} else {
		t.Logf("final loss: raw %.6f, lossy %.6f (%.4f%% apart)", refFinal, gotFinal, rel*100)
	}
	st := got.CommPerOp[strategies.OpEmbGrad]
	if st.RawBytes == 0 || st.WireBytes >= st.RawBytes {
		t.Errorf("lossy codec traffic looks wrong: raw=%d wire=%d", st.RawBytes, st.WireBytes)
	}
}

// The compressed exchange composes with the rest of the fault-tolerance
// matrix: lossless compressed training under a maskable chaos plan is
// bit-identical to the compressed fault-free run.
func TestLosslessCompressedTrainingUnderChaos(t *testing.T) {
	job := compressJob(4, 77)
	job.Model.Codec = compress.DeltaRaw{}
	ref, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		chaos := compressJob(4, 77)
		chaos.Model.Codec = compress.DeltaRaw{}
		plan := comm.MaskableChaosPlan(seed)
		chaos.Chaos = &plan
		got, err := Run(chaos)
		if err != nil {
			t.Fatalf("chaos seed %d: %v", seed, err)
		}
		sameResult(t, "compressed chaos vs compressed clean", ref, got)
	}
}
