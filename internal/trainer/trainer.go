// Package trainer runs real-execution distributed training jobs: N rank
// goroutines, each owning a strategy worker and a deterministic data stream,
// training the nn model with genuine arithmetic and genuine collective data
// movement. It is the substrate of the convergence experiment (Figure 11)
// and of the cross-strategy equivalence tests.
package trainer

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"embrace/internal/collective"
	"embrace/internal/comm"
	"embrace/internal/data"
	"embrace/internal/metrics"
	"embrace/internal/nn"
	"embrace/internal/strategies"
	"embrace/internal/tensor"
	"embrace/internal/trace"
)

// Job configures one training run.
type Job struct {
	// Strategy selects the communication strategy.
	Strategy strategies.Name
	// Workers is the world size N.
	Workers int
	// Steps is the number of training iterations.
	Steps int
	// Window is the context window length; each sentence contributes one
	// (window -> next token) training pair.
	Window int
	// Model is the strategy/model configuration.
	Model strategies.Config
	// Data describes the synthetic corpus; VocabSize must match
	// Model.Vocab.
	Data data.Config
	// DataSeed offsets the per-rank data streams; rank r draws from
	// DataSeed + r. All strategies with the same DataSeed see identical
	// batches, which the equivalence tests require.
	DataSeed int64
	// OverTCP runs the ranks over real loopback TCP sockets instead of
	// the in-process mailbox fabric; the strategies are transport-
	// agnostic, so results are identical either way.
	OverTCP bool
	// SkipBatches fast-forwards every rank's data stream before training —
	// set to the number of already-trained steps when resuming from a
	// checkpoint, so the resumed run sees the batches an uninterrupted run
	// would.
	SkipBatches int
	// ChunkBytes is the Communicator's pipelining segment size for dense
	// ring collectives. Zero selects DefaultChunkBytes; negative disables
	// chunking (whole-chunk messages). Results are bit-identical for every
	// value — chunking splits element ranges, not summation order.
	ChunkBytes int
	// Chaos, when non-nil, runs the job over a fault-injecting transport
	// (comm.WrapChaos around the in-process fabric). Maskable plans leave
	// results bit-identical to a fault-free run; unmaskable ones surface as
	// FaultError. Incompatible with OverTCP.
	Chaos *comm.FaultPlan
	// RecvTimeout bounds every blocking receive (comm.ErrTimeout past it),
	// the liveness backstop that turns a silently hung peer into an
	// attributed error. Zero disables.
	RecvTimeout time.Duration
	// Trace records per-rank execution spans (step phases, exchanges, the
	// background delayed AlltoAll) into Result.Traces for Chrome trace
	// export. Off by default: the step loop then carries zero tracing
	// overhead beyond nil-recorder pointer checks.
	Trace bool
	// TraceClock overrides the recorders' time source — tests inject a
	// deterministic clock; nil uses the wall clock (confined to the trace
	// package, so instrumented code stays free of time.Now).
	TraceClock trace.Clock
}

// DefaultChunkBytes is the pipelining segment size training jobs use when
// none is configured: small enough to overlap transfer with reduction on
// multi-MB gradients, large enough to amortize per-message overhead.
const DefaultChunkBytes = 256 << 10

// chunkBytesOf resolves the ChunkBytes convention (0 = default, <0 = off).
func chunkBytesOf(configured int) int {
	if configured == 0 {
		return DefaultChunkBytes
	}
	if configured < 0 {
		return 0
	}
	return configured
}

// Validate reports configuration errors.
func (j Job) Validate() error {
	if j.Workers <= 0 {
		return fmt.Errorf("trainer: workers must be positive, got %d", j.Workers)
	}
	if j.Steps <= 0 {
		return fmt.Errorf("trainer: steps must be positive, got %d", j.Steps)
	}
	if j.Window <= 0 || j.Window >= j.Data.MinSeqLen {
		return fmt.Errorf("trainer: window %d must be in [1, MinSeqLen-1=%d]", j.Window, j.Data.MinSeqLen-1)
	}
	if j.Data.VocabSize != j.Model.Vocab {
		return fmt.Errorf("trainer: data vocab %d != model vocab %d", j.Data.VocabSize, j.Model.Vocab)
	}
	if j.Chaos != nil && j.OverTCP {
		return fmt.Errorf("trainer: chaos injection runs over the in-process fabric; drop OverTCP")
	}
	if err := j.Model.Validate(j.Workers); err != nil {
		return err
	}
	return j.Data.Validate()
}

// Result reports a completed run.
type Result struct {
	// Losses holds the mean (across ranks) training loss of each step.
	Losses []float64
	// Accuracies holds the per-step top-1 next-token accuracy across all
	// ranks — the score metric of the Figure-11(b) convergence panel.
	Accuracies []float64
	// Embedding is the final full embedding table as seen from rank 0.
	Embedding *tensor.Dense
	// Trunk is rank 0's final dense parameters.
	Trunk *nn.Trunk
	// TokensTrained counts non-pad tokens consumed across all ranks, the
	// numerator of the paper's tokens/sec metric.
	TokensTrained int
	// Comm aggregates measured communication counters over all ranks:
	// the real-execution analogue of the paper's traffic analysis.
	Comm metrics.Stats
	// CommPerOp breaks Comm down by logical operation name (summed over
	// ranks): which collective moved the bytes — the embedding AlltoAll,
	// the dense AllReduces, the stats gather — not just how many moved.
	CommPerOp map[string]metrics.OpStats
	// Traces holds each rank's span recorder when Job.Trace is set, indexed
	// by rank (nil entries for ranks this process did not run). Feed to
	// trace.ExportRecorders for a Chrome/Perfetto timeline.
	Traces []*trace.Recorder
	// PhaseSeconds sums span durations by phase name across ranks when
	// tracing — the measured per-phase time breakdown.
	PhaseSeconds map[string]float64
}

// addCommPerOp folds one rank's per-op counters into res under mu.
func (r *Result) addCommPerOp(per map[string]metrics.OpStats) {
	if r.CommPerOp == nil {
		r.CommPerOp = make(map[string]metrics.OpStats, len(per))
	}
	for op, s := range per {
		r.CommPerOp[op] = r.CommPerOp[op].Add(s)
	}
}

// addTrace folds one rank's recorder into res under mu.
func (r *Result) addTrace(tr *trace.Recorder) {
	for len(r.Traces) <= tr.Rank() {
		r.Traces = append(r.Traces, nil)
	}
	r.Traces[tr.Rank()] = tr
	if r.PhaseSeconds == nil {
		r.PhaseSeconds = make(map[string]float64)
	}
	for name, sec := range tr.PhaseSeconds() {
		r.PhaseSeconds[name] += sec
	}
}

// WindowsTargets converts a batch into training pairs: for every sentence,
// the first `window` tokens form the context and token `window` is the
// next-token target.
func WindowsTargets(b *data.Batch, window int) ([][]int64, []int64) {
	windows := make([][]int64, len(b.Sentences))
	targets := make([]int64, len(b.Sentences))
	for i, s := range b.Sentences {
		windows[i] = s[:window]
		targets[i] = s[window]
	}
	return windows, targets
}

func init() {
	// Per-step metrics cross the wire when training over TCP.
	comm.RegisterWireType(nn.StepStats{})
}

// Run executes the job and returns its result. When the job fails mid-run
// (an attributed FaultError, reachable via errors.As on the joined per-rank
// errors), the Result is still returned — it carries every loss, accuracy
// and communication counter recorded before the fault.
func Run(job Job) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	shared, err := strategies.NewShared(job.Strategy, job.Model, job.Workers)
	if err != nil {
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
	if job.Chaos != nil {
		plan := *job.Chaos
		runRanks = func(n int, fn func(t comm.Transport) error) error {
			return comm.RunRanksChaos(n, plan, fn)
		}
	}
	runErr := runRanks(job.Workers, func(raw comm.Transport) error {
		return runRank(job, raw, shared, res, &mu)
	})
	// On failure the partial Result is returned WITH the error: the losses,
	// accuracies and comm counters folded in before the fault are real
	// progress a caller (the elastic supervisor above all) salvages, not
	// state to discard. Entries past the fault step keep their zero values.
	return res, runErr
}

// FaultError attributes an unmaskable communication fault to where it
// surfaced: which rank observed it, at which training step, in which phase of
// the step. The underlying transport error (comm.ErrPeerDown, comm.ErrTimeout,
// an exhausted retry budget) is reachable through errors.Is/As.
type FaultError struct {
	Rank  int
	Step  int // -1 outside the step loop
	Phase string
	Err   error
}

// Error implements error.
func (e *FaultError) Error() string {
	if e.Step < 0 {
		return fmt.Sprintf("trainer: rank %d: %s: %v", e.Rank, e.Phase, e.Err)
	}
	return fmt.Sprintf("trainer: rank %d step %d: %s: %v", e.Rank, e.Step, e.Phase, e.Err)
}

// Unwrap exposes the transport error.
func (e *FaultError) Unwrap() error { return e.Err }

// isCommFault reports whether err is a transport-level fault worth
// attributing (as opposed to a logic or configuration error).
func isCommFault(err error) bool {
	return errors.Is(err, comm.ErrPeerDown) ||
		errors.Is(err, comm.ErrTimeout) ||
		errors.Is(err, comm.ErrTransient) ||
		errors.Is(err, comm.ErrClosed)
}

// attribute wraps a step-phase error: communication faults become clean
// attributed FaultErrors; everything else keeps the plain wrapping.
func attribute(rank, step int, phase string, err error) error {
	if isCommFault(err) {
		return &FaultError{Rank: rank, Step: step, Phase: phase, Err: err}
	}
	if step < 0 {
		return fmt.Errorf("rank %d %s: %w", rank, phase, err)
	}
	return fmt.Errorf("rank %d step %d: %s: %w", rank, step, phase, err)
}

// runRank executes one rank's training loop, folding its results into res
// under mu. A rank that fails announces its departure (comm.Leaver) so peers
// blocked on it fail fast with an attributed error instead of hanging until
// their own timeouts.
func runRank(job Job, raw comm.Transport, shared *strategies.Shared, res *Result, mu *sync.Mutex) error {
	if job.RecvTimeout > 0 {
		if ts, ok := raw.(comm.TimeoutSetter); ok {
			ts.SetRecvTimeout(job.RecvTimeout)
		}
	}
	err := runRankLoop(job, raw, shared, res, mu)
	if err != nil {
		if l, ok := raw.(comm.Leaver); ok {
			l.Leave(err)
		}
	}
	return err
}

func runRankLoop(job Job, raw comm.Transport, shared *strategies.Shared, res *Result, mu *sync.Mutex) error {
	rec := metrics.NewOpRecorder()
	obs := collective.Observer(rec)
	var tr *trace.Recorder
	if job.Trace {
		// The worker routes the ops it runs off the step goroutine to the
		// background lane itself (strategies.NewWorker).
		tr = trace.NewRecorder(raw.Rank(), trace.WithClock(job.TraceClock))
		obs = collective.MultiObserver(rec, tr)
	}
	cm := collective.NewCommunicator(raw,
		collective.WithChunkBytes(chunkBytesOf(job.ChunkBytes)),
		collective.WithObserver(obs))
	defer func() {
		mu.Lock()
		res.Comm = res.Comm.Add(rec.Total())
		res.addCommPerOp(rec.PerOp())
		if tr != nil {
			res.addTrace(tr)
		}
		mu.Unlock()
	}()
	w, err := strategies.NewWorker(job.Strategy, cm, job.Model, shared, strategies.WithRecorder(tr))
	if err != nil {
		return err
	}
	gen, err := data.NewGenerator(job.Data, job.DataSeed+int64(cm.Rank()))
	if err != nil {
		return err
	}
	loader := data.NewLoader(gen)
	for skip := 0; skip < job.SkipBatches; skip++ {
		loader.Next()
	}
	for step := 0; step < job.Steps; step++ {
		batch := loader.Next()
		next := loader.Peek()
		windows, targets := WindowsTargets(batch, job.Window)
		sp := tr.Begin(trace.TrackCompute, "step", step)
		stats, err := w.Step(step, windows, targets, next.Tokens())
		sp.End()
		if err != nil {
			return attribute(cm.Rank(), step, "train step", err)
		}
		all, err := collective.GatherVia(cm, strategies.OpStats, step, 0, stats)
		if err != nil {
			return attribute(cm.Rank(), step, "stats gather", err)
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
	// Collect final state. FullEmbedding is collective for EmbRace, so
	// every rank participates; rank 0 keeps the result.
	emb, err := w.FullEmbedding()
	if err != nil {
		return attribute(cm.Rank(), -1, "final embedding", err)
	}
	if cm.Rank() == 0 {
		mu.Lock()
		res.Embedding = emb
		res.Trunk = w.Trunk()
		mu.Unlock()
	}
	return nil
}

// RunWorker runs one rank of a multi-process job over a caller-provided
// transport (typically a comm.TCPNode in its own OS process, started by
// cmd/embrace-worker). Parameter-server strategies need process-shared
// server state and are rejected; the collective strategies (Horovod
// AllReduce/AllGather, EmbRace) are fully peer-to-peer and supported. The
// returned Result carries this rank's view: only rank 0 aggregates losses
// and final parameters.
func RunWorker(job Job, t comm.Transport) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if t.Size() != job.Workers {
		return nil, fmt.Errorf("trainer: transport world %d != job workers %d", t.Size(), job.Workers)
	}
	switch job.Strategy {
	case strategies.Parallax, strategies.BytePS:
		return nil, fmt.Errorf("trainer: %s needs process-shared parameter servers; use Run for single-process jobs", job.Strategy)
	}
	res := &Result{
		Losses:     make([]float64, job.Steps),
		Accuracies: make([]float64, job.Steps),
	}
	var mu sync.Mutex
	// Like Run, a fault returns the partial Result alongside the error.
	err := runRank(job, t, &strategies.Shared{}, res, &mu)
	return res, err
}
