package trainer

import (
	"fmt"
	"strings"

	"embrace/internal/collective"
	"embrace/internal/data"
	"embrace/internal/nn"
	"embrace/internal/optim"
	"embrace/internal/sched"
	"embrace/internal/strategies"
	"embrace/internal/tensor"
	"embrace/internal/trace"
)

// SeqJob configures distributed training of the recurrent model
// (nn.SeqModel): per-token embedding lookup into a GRU, the gradient
// structure of the paper's translation models. Dense gradients ride the
// ring-sharded optimizer (strategies.DenseShards), the same path as the
// MLP trunk's; the per-token sparse embedding gradient is aggregated with
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
	tok, err := data.BuildTokenizer(strings.Join(j.Text, " "), j.Vocab)
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

// RunSeq trains the recurrent model across the world through the same rank
// loop as Run. Like Run, a failed job returns the partial Result alongside
// the joined per-rank errors, communication faults attributed as FaultError;
// a rank that fails, in setup too, leaves the world so its peers fail fast
// instead of waiting on it.
func RunSeq(job SeqJob) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	spec := epochSpec{workers: job.Workers, job: Job{
		Workers: job.Workers,
		Steps:   job.Steps,
		Window:  job.Window,
		OverTCP: job.OverTCP,
	}}
	out := runEpoch(spec, job.setupRank, nil)
	return out.res, out.err
}

// setupRank builds one rank's recurrent model, its Adam optimizers and its
// data stream.
func (j SeqJob) setupRank(cm *collective.Communicator, _ *trace.Recorder) (stepper, batchStream, error) {
	stream, vocab, err := newSeqStream(j, cm.Rank())
	if err != nil {
		return nil, nil, err
	}
	model := nn.NewSeqModel(j.Seed, vocab, j.EmbDim, j.Hidden)
	params := model.Params()
	w := &seqWorker{
		cm:       cm,
		model:    model,
		params:   params,
		denseOpt: strategies.NewDenseShards(cm, strategies.OptAdam, j.LR, params),
		embOpt:   optim.NewAdamDefault(model.Emb.Table, j.LR),
		vertical: j.Vertical,
	}
	return w, stream, nil
}

// seqWorker is one rank of the recurrent model: dense gradients ride one
// ring pass through the ring-sharded optimizer, the per-token sparse
// embedding gradient a sparse AllGather, optionally split by Algorithm 1
// under the modified Adam.
type seqWorker struct {
	cm       *collective.Communicator
	model    *nn.SeqModel
	params   []nn.NamedParam
	denseOpt *strategies.DenseShards
	embOpt   *optim.Adam
	vertical bool
}

// Step runs FP and BP, exchanges both gradient kinds and applies them.
func (w *seqWorker) Step(step int, windows [][]int64, targets []int64, nextTokens []int64) (nn.StepStats, error) {
	stats, embGrad, dense, err := w.model.Step(windows, targets)
	if err != nil {
		return stats, err
	}

	// One ring pass over every dense gradient, in parameter order.
	grads := make([]*tensor.Dense, len(w.params))
	for i, p := range w.params {
		grads[i] = dense[p.Name]
	}
	if err := w.denseOpt.Step(strategies.OpTrunk, step, grads...); err != nil {
		return stats, fmt.Errorf("dense exchange: %w", err)
	}

	if !w.vertical {
		// Coalesce locally before shipping (as PyTorch does): fewer wire
		// bytes, and the same per-rank summation grouping the vertical path
		// uses, so both paths stay bit-identical.
		merged, err := w.cm.SparseAllGather(strategies.OpEmbGrad, step, embGrad.Coalesce())
		if err != nil {
			return stats, fmt.Errorf("embedding allgather: %w", err)
		}
		if err := w.embOpt.StepSparse(merged); err != nil {
			return stats, fmt.Errorf("embedding update: %w", err)
		}
		return stats, nil
	}
	// Algorithm 1 uses the GATHERED next batch: a row is "prior" only with
	// the same verdict on every rank, keeping the merged prior and delayed
	// parts disjoint (the modified-Adam exactness condition).
	allNext, err := collective.AllGatherVia(w.cm, strategies.OpNextBatch, step, tensor.UniqueInt64(nextTokens))
	if err != nil {
		return stats, fmt.Errorf("next-batch gather: %w", err)
	}
	var nextAll []int64
	for _, ns := range allNext {
		nextAll = append(nextAll, ns...)
	}
	prior, delayed := sched.VerticalSplit(embGrad, embGrad.UniqueIndices(), tensor.UniqueInt64(nextAll))
	mergedPrior, err := w.cm.SparseAllGather(strategies.OpEmbPrior, step, prior)
	if err != nil {
		return stats, fmt.Errorf("prior allgather: %w", err)
	}
	if err := w.embOpt.StepSparsePartial(mergedPrior, false); err != nil {
		return stats, fmt.Errorf("prior update: %w", err)
	}
	mergedDelayed, err := w.cm.SparseAllGather(strategies.OpEmbDelayed, step, delayed)
	if err != nil {
		return stats, fmt.Errorf("delayed allgather: %w", err)
	}
	if err := w.embOpt.StepSparsePartial(mergedDelayed, true); err != nil {
		return stats, fmt.Errorf("delayed update: %w", err)
	}
	return stats, nil
}

// FullEmbedding returns the rank's replicated embedding table.
func (w *seqWorker) FullEmbedding() (*tensor.Dense, error) { return w.model.Emb.Table, nil }

// Trunk returns nil: the recurrent model has no MLP trunk.
func (w *seqWorker) Trunk() *nn.Trunk { return nil }

// Drain has nothing to wait for: every exchange runs on the step goroutine.
func (w *seqWorker) Drain() {}
