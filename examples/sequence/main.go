// Sequence: data-parallel training of the recurrent model (embedding → GRU
// → softmax) with per-token sparse embedding gradients — the gradient
// structure of the paper's translation models, where every token position
// contributes a row and duplicates abound. The example trains through the
// public API (embrace.TrainSeq) with Algorithm 1's prior/delayed split and
// prints the Algorithm-1 statistics of one batch's actual GRU gradient.
package main

import (
	"fmt"
	"log"

	"embrace"

	"embrace/internal/data"
	"embrace/internal/nn"
	"embrace/internal/sched"
	"embrace/internal/tensor"
	"embrace/internal/trainer"
)

func main() {
	log.SetFlags(0)
	const (
		workers = 4
		steps   = 25
		vocab   = 400
		embDim  = 12
		hidden  = 16
		window  = 6
		batch   = 12
		seed    = 11
	)

	res, err := embrace.TrainSeq(embrace.SeqTrainConfig{
		Workers:        workers,
		Steps:          steps,
		Window:         window,
		Vocab:          vocab,
		EmbDim:         embDim,
		Hidden:         hidden,
		BatchSentences: batch,
		Vertical:       true,
		Seed:           seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("GRU sequence model, 4 workers, per-token sparse gradients + Algorithm 1:")
	for i := 0; i < steps-1; i += 6 {
		fmt.Printf("  step %3d  loss %.4f\n", i+1, res.Losses[i])
	}
	fmt.Printf("  step %3d  loss %.4f\n", steps, res.Losses[steps-1])

	// Rank 0's first batch, reproduced outside the run: the same corpus
	// (TrainSeq draws rank r's from Seed+1+r), the same initial model, one
	// forward/backward pass. Training splits against the next batch gathered
	// from every rank; the rank-local next batch shown here is what a single
	// worker's Algorithm 1 sees.
	gen, err := data.NewGenerator(data.Config{
		VocabSize: vocab, BatchSentences: batch,
		MaxSeqLen: window + 3, MinSeqLen: window + 1,
		ZipfS: 1.6, ZipfV: 3,
	}, seed+1)
	if err != nil {
		log.Fatal(err)
	}
	loader := data.NewLoader(gen)
	cur, next := loader.Next(), loader.Peek()
	windows, targets := trainer.WindowsTargets(cur, window)
	_, embGrad, _, err := nn.NewSeqModel(seed, vocab, embDim, hidden).Step(windows, targets)
	if err != nil {
		log.Fatal(err)
	}
	sizes := sched.MeasureSplit(embGrad, embGrad.UniqueIndices(), tensor.UniqueInt64(next.Tokens()))
	rowBytes := 8 + embDim*tensor.BytesPerElem // int64 id + one embedding row
	fmt.Printf("\nfirst-step gradient (rank 0): %d raw token rows -> %d coalesced (%d prior, %d delayed)\n",
		sizes.OriginalBytes/rowBytes, sizes.CoalescedBytes/rowBytes,
		sizes.PriorBytes/rowBytes, sizes.DelayedBytes/rowBytes)

	// The same machinery on real text: a tokenizer is built from the
	// sentences, each worker takes an interleaved shard, and vertical
	// scheduling splits the real per-token gradients.
	text := []string{
		"the old man went to the sea",
		"the sea was calm and the wind was cold",
		"the old man cast his net into the sea",
		"the net came back empty and the man waited",
		"the wind rose and the sea grew rough",
		"the man pulled the net from the rough sea",
		"the cold wind cut through the old net",
		"the sea gave the man a great fish",
	}
	res, err = embrace.TrainSeq(embrace.SeqTrainConfig{
		Workers:        2,
		Steps:          40,
		Window:         5,
		Vocab:          64,
		BatchSentences: 4,
		Vertical:       true,
		Seed:           3,
		Text:           text,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreal text (%d sentences): loss %.3f -> %.3f, final next-word accuracy %.0f%%\n",
		len(text), res.Losses[0], res.Losses[len(res.Losses)-1],
		100*res.Accuracies[len(res.Accuracies)-1])
}
