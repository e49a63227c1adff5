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

	"embrace/internal/checkpoint"
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
	// Chaos, when non-nil, runs the job over a fault-injecting transport
	// (a comm.NewChaosWorld built by newWorld). Maskable plans leave
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

// DefaultChunkBytes is the pipelining segment size of every training job's
// dense ring collectives: small enough to overlap transfer with reduction on
// multi-MB gradients, large enough to amortize per-message overhead. Results
// are bit-identical for any value — chunking splits element ranges, not
// summation order.
const DefaultChunkBytes = 256 << 10

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

// attribute wraps a step-phase error of rank at epoch-local step (-1 outside
// the step loop): communication faults become clean attributed FaultErrors;
// everything else keeps the plain wrapping. A failure of a worker's
// background lane is reported at the step that started the lane — a dense
// ring of step t surfaces inside step t+1 or the final gather. Steps are
// reported in global numbering.
func (s epochSpec) attribute(rank, step int, phase string, err error) error {
	var le *strategies.LaneError
	if errors.As(err, &le) {
		step = le.Step
	}
	if step >= 0 {
		step += s.stepBase
	}
	if isCommFault(err) {
		return &FaultError{Rank: rank, Step: step, Phase: phase, Err: err}
	}
	if step < 0 {
		return fmt.Errorf("rank %d %s: %w", rank, phase, err)
	}
	return fmt.Errorf("rank %d step %d: %s: %w", rank, step, phase, err)
}

// Run executes the job and returns its result: one epoch-0 world with no
// snapshot cadence. When the job fails mid-run (an attributed FaultError,
// reachable via errors.As on the joined per-rank errors), the Result is still
// returned — it carries every loss, accuracy and communication counter
// recorded before the fault, real progress a caller (the elastic supervisor
// above all) salvages. Entries past the fault step keep their zero values.
func Run(job Job) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	spec := epochSpec{job: job, workers: job.Workers}
	out := runEpoch(spec, spec.strategyRank(), nil)
	return out.res, out.err
}

// RunWorker runs one rank of a multi-process job over a caller-provided
// transport (typically a comm.TCPNode in its own OS process, started by
// embrace.TrainRank). Every strategy runs this way: the parameter-server
// baselines keep their server shards on the ranks, so all five are
// peer-to-peer. The returned Result carries this rank's view: only rank 0
// aggregates losses and final parameters. Like Run, a fault returns the
// partial Result alongside the error.
func RunWorker(job Job, t comm.Transport) (*Result, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if t.Size() != job.Workers {
		return nil, fmt.Errorf("trainer: transport world %d != job workers %d", t.Size(), job.Workers)
	}
	spec := epochSpec{job: job, workers: job.Workers}
	out := &epochOutcome{res: newResult(job.Steps)}
	err := rankLoop(spec, t, spec.strategyRank(), out)
	return out.res, err
}

// ---------------------------------------------------------------------------
// The rank loop: one per-rank training loop for every job.
// ---------------------------------------------------------------------------

// stepper is the rank-local model + strategy the loop drives.
// strategies.Worker satisfies it; seqWorker is the recurrent model's.
type stepper interface {
	Step(step int, windows [][]int64, targets []int64, nextTokens []int64) (nn.StepStats, error)
	FullEmbedding() (*tensor.Dense, error)
	Trunk() *nn.Trunk
	Drain()
}

// batchStream is the prefetching contract both loaders satisfy.
type batchStream interface {
	Next() *data.Batch
	Peek() *data.Batch
}

// setupFunc builds one rank's worker and data stream over its Communicator;
// tr is the rank's span recorder, nil when tracing is off.
type setupFunc func(cm *collective.Communicator, tr *trace.Recorder) (stepper, batchStream, error)

// opWorldBarrier is the barrier a rebuilt world passes before step traffic
// flows (serve.Reload's pending-pointer handoff shape): every rank has built
// its worker — remapped shard restored — in the new epoch plane.
const opWorldBarrier = "elastic/world"

// epochSpec places one world epoch in its run.
type epochSpec struct {
	job       Job // the run's settings; a seq job fills only the loop's
	epoch     int
	workers   int
	stepBase  int                    // global steps locked in before this epoch
	ckptEvery int                    // >0: snapshot every ckptEvery epoch steps
	stopAfter int                    // >0: stop at the first boundary >= this many epoch steps
	base      *checkpoint.Checkpoint // snapshot the epoch's workers restore
	clock     trace.Clock            // times the world barrier of epochs > 0
}

// epochOutcome is what an epoch's ranks fold in, under mu.
type epochOutcome struct {
	mu      sync.Mutex
	res     *Result
	snaps   []snapshotRec
	stopped bool
	crashed []int
	readyAt time.Duration // clock() when rank 0 cleared the world barrier
	err     error
}

// newResult allocates the per-step series of a steps-long run.
func newResult(steps int) *Result {
	return &Result{Losses: make([]float64, steps), Accuracies: make([]float64, steps)}
}

// addStats folds one step's gathered per-rank stats into r: the mean loss
// and the pooled top-1 accuracy.
func (r *Result) addStats(step int, all []nn.StepStats) {
	var sum float64
	correct, count := 0, 0
	for _, s := range all {
		sum += s.Loss
		correct += s.Correct
		count += s.Count
	}
	r.Losses[step] = sum / float64(len(all))
	if count > 0 {
		r.Accuracies[step] = float64(correct) / float64(count)
	}
}

// world is one epoch's fabric.
type world struct {
	rank    func(int) comm.Transport
	crashed func() []int // the ranks chaos has crashed
	close   func()
}

// newWorld is where every run picks its fabric: loopback TCP, a chaos world
// or in-process mailboxes. The chaos world is built at epoch 0. When keep is
// non-nil it hands that world to the caller, which closes it, and a later
// full-size epoch reuses it: every rank is readmitted (survivors left during
// the cascade too), the plan's maskable noise keeps flowing, and the fresh
// epoch plane shields the rebuilt collectives from the dead epoch's stale
// frames. A shrunk epoch gets a fresh clean world, since a world's size is
// fixed at construction.
func newWorld(job Job, n, epoch int, keep **comm.ChaosWorld) (*world, error) {
	noCrashes := func() []int { return nil }
	switch {
	case job.OverTCP:
		w, err := comm.NewTCPWorld(n)
		if err != nil {
			return nil, err
		}
		return &world{w.Rank, noCrashes, w.Close}, nil
	case job.Chaos != nil && epoch == 0:
		cw, err := comm.NewChaosWorld(n, *job.Chaos)
		if err != nil {
			return nil, err
		}
		if keep == nil {
			return &world{cw.Rank, cw.Crashed, cw.Close}, nil
		}
		*keep = cw
		return &world{cw.Rank, cw.Crashed, func() {}}, nil
	case keep != nil && *keep != nil && (*keep).Size() == n:
		cw := *keep
		for i := 0; i < n; i++ {
			cw.Readmit(i)
		}
		return &world{cw.Rank, cw.Crashed, func() {}}, nil
	default:
		w, err := comm.NewWorld(n)
		if err != nil {
			return nil, err
		}
		return &world{w.Rank, noCrashes, w.Close}, nil
	}
}

// runEpoch runs one world epoch: it builds the fabric, runs every rank's
// loop on its own goroutine, and joins their errors.
func runEpoch(spec epochSpec, setup setupFunc, keep **comm.ChaosWorld) *epochOutcome {
	out := &epochOutcome{res: newResult(spec.job.Steps - spec.stepBase)}
	w, err := newWorld(spec.job, spec.workers, spec.epoch, keep)
	if err != nil {
		out.err = err
		return out
	}
	defer w.close()
	errs := make([]error, spec.workers)
	var wg sync.WaitGroup
	for i := range spec.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = rankLoop(spec, w.rank(i), setup, out)
		}()
	}
	wg.Wait()
	out.err = errors.Join(errs...)
	out.crashed = w.crashed()
	return out
}

// strategyRank sets up one rank of a pooled-model epoch: its strategy worker,
// restored from spec.base when the epoch resumes a snapshot, and its data
// stream, fast-forwarded past every batch already trained. EmbRace ranks
// slice exactly their new columns out of the snapshot (checkpoint.ColumnShard
// follows the same ColumnWise tiling the remap plan describes); the
// replicated-table strategies restore the full table. Trunk parameters
// warm-start everywhere.
func (s epochSpec) strategyRank() setupFunc {
	return func(cm *collective.Communicator, tr *trace.Recorder) (stepper, batchStream, error) {
		cfg := s.job.Model
		opts := []strategies.WorkerOption{strategies.WithRecorder(tr)}
		if s.base != nil {
			cfg.InitTrunk = trunkParamsOf(s.base)
			if s.job.Strategy == strategies.EmbRace {
				shard, err := s.base.ColumnShard("emb", cm.Size(), cm.Rank())
				if err != nil {
					return nil, nil, fmt.Errorf("rank %d: restoring remapped shard: %w", cm.Rank(), err)
				}
				opts = append(opts, strategies.WithEmbShard(shard))
			} else {
				cfg.InitEmbedding = s.base.Params["emb"]
			}
		}
		w, err := strategies.NewWorker(s.job.Strategy, cm, cfg, nil, opts...)
		if err != nil {
			return nil, nil, err
		}
		gen, err := data.NewGenerator(s.job.Data, s.job.DataSeed+int64(cm.Rank()))
		if err != nil {
			return nil, nil, err
		}
		loader := data.NewLoader(gen)
		for range s.job.SkipBatches + s.stepBase {
			loader.Next()
		}
		return w, loader, nil
	}
}

// rankLoop is the paper's worker iteration (§5.1), the one loop every job
// runs: draw a batch, let the worker run FP, BP, exchange and update, gather
// the step's stats to rank 0. At a snapshot boundary the ranks gather the
// full embedding and rank 0 seals it with the trunk into a checkpoint; a stop
// boundary ends the epoch there. After the last step rank 0 keeps the final
// parameters.
//
// Receives are bounded by the job's RecvTimeout. A rank that fails, in setup
// too, announces its departure (comm.Leaver) so peers blocked on it fail fast
// with an attributed error instead of hanging until their own timeouts; then
// it drains its worker, so no background lane outlives the rank.
func rankLoop(spec epochSpec, raw comm.Transport, setup setupFunc, out *epochOutcome) (err error) {
	job := spec.job
	if ts, ok := raw.(comm.TimeoutSetter); ok && job.RecvTimeout > 0 {
		ts.SetRecvTimeout(job.RecvTimeout)
	}
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
		collective.WithChunkBytes(DefaultChunkBytes),
		collective.WithObserver(obs),
		collective.WithEpoch(spec.epoch))
	defer func() {
		out.mu.Lock()
		out.res.Comm = out.res.Comm.Add(rec.Total())
		out.res.addCommPerOp(rec.PerOp())
		if tr != nil {
			out.res.addTrace(tr)
		}
		out.mu.Unlock()
	}()
	var w stepper
	defer func() {
		if err == nil {
			return
		}
		cm.Leave(err)
		if w != nil {
			w.Drain()
		}
	}()
	w, stream, err := setup(cm, tr)
	if err != nil {
		return err
	}
	rank := cm.Rank()
	if spec.epoch > 0 {
		if err := cm.Barrier(opWorldBarrier, 0); err != nil {
			return spec.attribute(rank, -1, "world barrier", err)
		}
		if rank == 0 {
			out.mu.Lock()
			out.readyAt = spec.clock()
			out.mu.Unlock()
		}
	}

	steps := job.Steps - spec.stepBase
	for s := 0; s < steps; s++ {
		batch := stream.Next()
		next := stream.Peek()
		windows, targets := WindowsTargets(batch, job.Window)
		sp := tr.Begin(trace.TrackCompute, "step", s)
		stats, err := w.Step(s, windows, targets, next.Tokens())
		sp.End()
		if err != nil {
			return spec.attribute(rank, s, "train step", err)
		}
		all, err := collective.GatherVia(cm, strategies.OpStats, s, 0, stats)
		if err != nil {
			return spec.attribute(rank, s, "stats gather", err)
		}
		out.mu.Lock()
		if rank == 0 {
			out.res.addStats(s, all)
		}
		out.res.TokensTrained += batch.NonPad
		out.mu.Unlock()

		snap, stop := boundary(s+1, steps, spec.ckptEvery, spec.stopAfter)
		if !snap {
			continue
		}
		// FullEmbedding is collective (EmbRace gathers shards; it also joins
		// the in-flight trunk update and harvests the in-flight delayed
		// exchange first, which the next step would have applied before any
		// other mutation anyway — the reason snapshot boundaries stay
		// bit-exact). Trunk is current only after it.
		emb, err := w.FullEmbedding()
		if err != nil {
			return spec.attribute(rank, s, "checkpoint gather", err)
		}
		if rank == 0 {
			ckpt := snapshotCheckpoint(job.SkipBatches+spec.stepBase+s+1, emb, w.Trunk())
			out.mu.Lock()
			out.snaps = append(out.snaps, snapshotRec{steps: s + 1, ckpt: ckpt})
			out.stopped = stop
			out.mu.Unlock()
		}
		if stop {
			return nil
		}
	}

	emb, err := w.FullEmbedding()
	if err != nil {
		return spec.attribute(rank, -1, "final embedding", err)
	}
	if rank == 0 {
		out.mu.Lock()
		out.res.Embedding = emb
		out.res.Trunk = w.Trunk()
		out.mu.Unlock()
	}
	return nil
}

// boundary is the loop's verdict after `done` of an epoch's `steps` steps:
// snapshot every `every` steps; once `stopAfter` steps are in, snapshot and
// stop so the next epoch can readmit recovered ranks. The final boundary
// does neither — the end of the loop gathers final state instead. The
// verdict reads only values every rank holds, so every rank reaches it
// without a message.
func boundary(done, steps, every, stopAfter int) (snap, stop bool) {
	if done >= steps {
		return false, false
	}
	stop = stopAfter > 0 && done >= stopAfter
	return stop || (every > 0 && done%every == 0), stop
}
