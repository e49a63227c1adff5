package experiments

import (
	"fmt"
	"io"
	"math"

	"embrace/internal/data"
	"embrace/internal/nn"
	"embrace/internal/strategies"
	"embrace/internal/trainer"
)

// Figure11Point is one sampled point of a convergence curve: panel (a)
// tracks perplexity, panel (b) top-1 next-token accuracy (the repo's
// stand-in for the paper's BLEU score).
type Figure11Point struct {
	Step       int
	EmbRacePPL float64
	GatherPPL  float64
	EmbRaceAcc float64
	GatherAcc  float64
}

// Figure11Result holds the convergence comparison of §5.7: EmbRace with
// full 2D scheduling and the modified Adam vs Horovod AllGather with plain
// Adam, trained with real arithmetic on identical data.
type Figure11Result struct {
	Steps      int
	Workers    int
	Points     []Figure11Point
	FinalDelta float64 // |EmbRace - AllGather| final PPL gap
	MaxDelta   float64 // largest PPL gap along the curves
}

// figure11Job builds the real-training job of the convergence experiment: a
// down-scaled LM-like task (Zipf next-token prediction through a pooled
// embedding) small enough to train in seconds yet exercising every code
// path of the §5.7 claim.
func figure11Job(strategy strategies.Name, sched strategies.SchedMode, steps int) trainer.Job {
	return trainer.Job{
		Strategy: strategy,
		Workers:  4,
		Steps:    steps,
		Window:   4,
		Model: strategies.Config{
			Seed:      2024,
			Vocab:     600,
			EmbDim:    16,
			Hidden:    24,
			Optimizer: strategies.OptAdam,
			LR:        0.01,
			Sched:     sched,
		},
		Data: data.Config{
			VocabSize:      600,
			BatchSentences: 24,
			MaxSeqLen:      8,
			MinSeqLen:      6,
			ZipfS:          1.5,
			ZipfV:          4,
		},
		DataSeed: 99,
	}
}

// RunFigure11 trains both systems for `steps` iterations and samples PPL
// every `every` steps.
func RunFigure11(steps, every int) (*Figure11Result, error) {
	if steps < every || every < 1 {
		return nil, fmt.Errorf("experiments: bad sampling steps=%d every=%d", steps, every)
	}
	emb, err := trainer.Run(figure11Job(strategies.EmbRace, strategies.Sched2D, steps))
	if err != nil {
		return nil, fmt.Errorf("embrace run: %w", err)
	}
	gather, err := trainer.Run(figure11Job(strategies.HorovodAllGather, strategies.SchedNone, steps))
	if err != nil {
		return nil, fmt.Errorf("allgather run: %w", err)
	}
	res := &Figure11Result{Steps: steps, Workers: 4}
	for s := every - 1; s < steps; s += every {
		p := Figure11Point{
			Step:       s + 1,
			EmbRacePPL: nn.Perplexity(emb.Losses[s]),
			GatherPPL:  nn.Perplexity(gather.Losses[s]),
			EmbRaceAcc: emb.Accuracies[s],
			GatherAcc:  gather.Accuracies[s],
		}
		res.Points = append(res.Points, p)
		if d := math.Abs(p.EmbRacePPL - p.GatherPPL); d > res.MaxDelta {
			res.MaxDelta = d
		}
	}
	last := res.Points[len(res.Points)-1]
	res.FinalDelta = math.Abs(last.EmbRacePPL - last.GatherPPL)
	return res, nil
}

// RenderFigure11 prints the PPL-vs-steps curves side by side.
func RenderFigure11(w io.Writer) error {
	res, err := RunFigure11(60, 5)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "(a) PPL and (b) top-1 accuracy vs steps, %d workers, real training\n", res.Workers)
	fmt.Fprintf(w, "(modified Adam vs plain Adam):\n")
	fmt.Fprintf(w, "  %6s %12s %12s %12s %12s\n", "step", "EmbRace-PPL", "Gather-PPL", "EmbRace-acc", "Gather-acc")
	for _, p := range res.Points {
		fmt.Fprintf(w, "  %6d %12.2f %12.2f %12.3f %12.3f\n",
			p.Step, p.EmbRacePPL, p.GatherPPL, p.EmbRaceAcc, p.GatherAcc)
	}
	fmt.Fprintf(w, "final PPL gap %.4f, max gap along curve %.4f\n", res.FinalDelta, res.MaxDelta)
	return nil
}
