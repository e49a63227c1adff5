package trainer

import (
	"fmt"
	"sync"

	"embrace/internal/collective"
	"embrace/internal/comm"
	"embrace/internal/data"
	"embrace/internal/metrics"
	"embrace/internal/nn"
	"embrace/internal/optim"
	"embrace/internal/sched"
	"embrace/internal/strategies"
	"embrace/internal/tensor"
)

// SeqJob configures distributed training of the recurrent model
// (nn.SeqModel): per-token embedding lookup into a GRU, the gradient
// structure of the paper's translation models. Dense gradients ride ring
// AllReduce; the per-token sparse embedding gradient is aggregated with
// sparse AllGather, optionally through Algorithm 1's prior/delayed split
// with the modified Adam.
type SeqJob struct {
	// Workers is the world size; Steps the iteration count; Window the
	// BPTT length (each sentence contributes one window -> next-token
	// pair).
	Workers, Steps, Window int
	// Vocab, EmbDim, Hidden size the model.
	Vocab, EmbDim, Hidden int
	// LR is the Adam learning rate.
	LR float32
	// Vertical enables Algorithm 1 (split sparse updates, modified Adam).
	Vertical bool
	// Seed initializes parameters; DataSeed the per-rank corpora.
	Seed, DataSeed int64
	// Data describes the synthetic corpus; VocabSize must equal Vocab and
	// MinSeqLen must exceed Window. Ignored when Text is set.
	Data data.Config
	// Text, when non-empty, trains on real sentences instead of the
	// synthetic corpus: a Tokenizer is built over all sentences (capped at
	// Vocab ids), and rank r trains on every Workers-th sentence starting
	// at r. Each sentence must have at least Window+1 tokens after
	// truncation to Window+1.
	Text []string
	// TextBatch is the sentences per batch per worker for Text mode; zero
	// picks 8.
	TextBatch int
	// OverTCP runs ranks over loopback TCP sockets.
	OverTCP bool
	// ChunkBytes is the Communicator pipelining segment size; same
	// convention as Job.ChunkBytes (0 = DefaultChunkBytes, <0 = off).
	ChunkBytes int
}

// Validate reports configuration errors.
func (j SeqJob) Validate() error {
	if j.Workers <= 0 || j.Steps <= 0 {
		return fmt.Errorf("trainer: seq job needs positive workers (%d) and steps (%d)", j.Workers, j.Steps)
	}
	if j.EmbDim <= 0 || j.Hidden <= 0 {
		return fmt.Errorf("trainer: bad model dims emb=%d hidden=%d", j.EmbDim, j.Hidden)
	}
	if j.LR <= 0 {
		return fmt.Errorf("trainer: learning rate must be positive, got %g", j.LR)
	}
	if j.Window <= 0 {
		return fmt.Errorf("trainer: window %d must be positive", j.Window)
	}
	if len(j.Text) > 0 {
		if j.Vocab < 3 {
			return fmt.Errorf("trainer: text mode needs vocab >= 3, got %d", j.Vocab)
		}
		return nil
	}
	if j.Window >= j.Data.MinSeqLen {
		return fmt.Errorf("trainer: window %d must be below MinSeqLen %d", j.Window, j.Data.MinSeqLen)
	}
	if j.Vocab != j.Data.VocabSize {
		return fmt.Errorf("trainer: data vocab %d != model vocab %d", j.Data.VocabSize, j.Vocab)
	}
	return j.Data.Validate()
}

// batchStream is the prefetching contract both loaders satisfy.
type batchStream interface {
	Next() *data.Batch
	Peek() *data.Batch
}

// newSeqStream builds rank `rank`'s data stream for the job. In text mode
// the model's vocabulary is the tokenizer's (returned for model sizing).
func newSeqStream(j SeqJob, rank int) (batchStream, int, error) {
	if len(j.Text) == 0 {
		gen, err := data.NewGenerator(j.Data, j.DataSeed+int64(rank))
		if err != nil {
			return nil, 0, err
		}
		return data.NewLoader(gen), j.Vocab, nil
	}
	tok, err := data.BuildTokenizer(joinSentences(j.Text), j.Vocab)
	if err != nil {
		return nil, 0, err
	}
	batch := j.TextBatch
	if batch == 0 {
		batch = 8
	}
	loader, err := data.NewTextLoader(tok, j.Text, batch, j.Window+1, rank, j.Workers)
	if err != nil {
		return nil, 0, err
	}
	return loader, tok.VocabSize(), nil
}

func joinSentences(ss []string) string {
	total := 0
	for _, s := range ss {
		total += len(s) + 1
	}
	out := make([]byte, 0, total)
	for _, s := range ss {
		out = append(out, s...)
		out = append(out, ' ')
	}
	return string(out)
}

// RunSeq trains the recurrent model across the world and returns the
// aggregated result.
func RunSeq(job SeqJob) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Losses:     make([]float64, job.Steps),
		Accuracies: make([]float64, job.Steps),
	}
	var mu sync.Mutex
	runRanks := comm.RunRanks
	if job.OverTCP {
		runRanks = comm.RunRanksTCP
	}
	err := runRanks(job.Workers, func(raw comm.Transport) error {
		return runSeqRank(job, raw, res, &mu)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func runSeqRank(job SeqJob, raw comm.Transport, res *Result, mu *sync.Mutex) error {
	rec := metrics.NewOpRecorder()
	cm := collective.NewCommunicator(raw,
		collective.WithChunkBytes(chunkBytesOf(job.ChunkBytes)),
		collective.WithObserver(rec))
	defer func() {
		mu.Lock()
		res.Comm = res.Comm.Add(rec.Total())
		res.addCommPerOp(rec.PerOp())
		mu.Unlock()
	}()

	loader, vocab, err := newSeqStream(job, cm.Rank())
	if err != nil {
		return err
	}
	model := nn.NewSeqModel(job.Seed, vocab, job.EmbDim, job.Hidden)
	params := model.Params()
	opts := map[string]optim.Optimizer{}
	for _, p := range params {
		opts[p.Name] = optim.NewAdamDefault(p.Tensor, job.LR)
	}
	blocks := make([][]float32, len(params))
	embOpt := optim.NewAdamDefault(model.Emb.Table, job.LR)

	for step := 0; step < job.Steps; step++ {
		batch := loader.Next()
		next := loader.Peek()
		windows, targets := WindowsTargets(batch, job.Window)

		stats, embGrad, dense, err := model.Step(windows, targets)
		if err != nil {
			return fmt.Errorf("rank %d step %d: %w", cm.Rank(), step, err)
		}

		// One ring pass over every dense gradient, in parameter order.
		for i, p := range params {
			blocks[i] = dense[p.Name].Data()
		}
		if err := cm.AllReduceBlocks(strategies.OpTrunk, step, blocks...); err != nil {
			return fmt.Errorf("dense allreduce: %w", err)
		}
		for _, p := range params {
			if err := opts[p.Name].StepDense(dense[p.Name]); err != nil {
				return fmt.Errorf("dense %s update: %w", p.Name, err)
			}
		}

		if !job.Vertical {
			// Coalesce locally before shipping (as PyTorch does): fewer
			// wire bytes, and the same per-rank summation grouping the
			// vertical path uses, so both paths stay bit-identical.
			merged, err := cm.SparseAllGather(strategies.OpEmbGrad, step, embGrad.Coalesce())
			if err != nil {
				return fmt.Errorf("embedding allgather: %w", err)
			}
			if err := embOpt.StepSparse(merged); err != nil {
				return fmt.Errorf("embedding update: %w", err)
			}
		} else {
			// Algorithm 1 uses the GATHERED next batch: a row is "prior"
			// only with the same verdict on every rank, keeping the
			// merged prior and delayed parts disjoint (the modified-Adam
			// exactness condition).
			allNext, err := collective.AllGatherVia(cm, strategies.OpNextBatch, step, tensor.UniqueInt64(next.Tokens()))
			if err != nil {
				return fmt.Errorf("next-batch gather: %w", err)
			}
			var nextAll []int64
			for _, ns := range allNext {
				nextAll = append(nextAll, ns...)
			}
			prior, delayed := sched.VerticalSplit(embGrad, embGrad.UniqueIndices(),
				tensor.UniqueInt64(nextAll))
			mergedPrior, err := cm.SparseAllGather(strategies.OpEmbPrior, step, prior)
			if err != nil {
				return fmt.Errorf("prior allgather: %w", err)
			}
			if err := embOpt.StepSparsePartial(mergedPrior, false); err != nil {
				return fmt.Errorf("prior update: %w", err)
			}
			mergedDelayed, err := cm.SparseAllGather(strategies.OpEmbDelayed, step, delayed)
			if err != nil {
				return fmt.Errorf("delayed allgather: %w", err)
			}
			if err := embOpt.StepSparsePartial(mergedDelayed, true); err != nil {
				return fmt.Errorf("delayed update: %w", err)
			}
		}

		all, err := collective.GatherVia(cm, strategies.OpStats, step, 0, stats)
		if err != nil {
			return fmt.Errorf("stats gather: %w", err)
		}
		if cm.Rank() == 0 {
			var sum float64
			correct, count := 0, 0
			for _, s := range all {
				sum += s.Loss
				correct += s.Correct
				count += s.Count
			}
			mu.Lock()
			res.Losses[step] = sum / float64(len(all))
			if count > 0 {
				res.Accuracies[step] = float64(correct) / float64(count)
			}
			mu.Unlock()
		}
		mu.Lock()
		res.TokensTrained += batch.NonPad
		mu.Unlock()
	}
	if cm.Rank() == 0 {
		mu.Lock()
		res.Embedding = model.Emb.Table
		mu.Unlock()
	}
	return nil
}
