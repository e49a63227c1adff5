// Package strategies implements the five distributed training strategies the
// paper evaluates (§5.2.3), all in real-execution mode: every rank holds real
// tensors, and gradients actually move through the collectives.
//
//   - HorovodAllReduce: every gradient, embeddings included, is aggregated
//     densely with ring AllReduce.
//   - HorovodAllGather: dense gradients use AllReduce; embedding gradients
//     stay sparse and are aggregated with AllGather.
//   - BytePS: every gradient goes through dense parameter servers, one
//     shard co-located with each rank: the push is a ring reduce-scatter to
//     the chunk owners, the pull an all-gather of the updated parameters
//     (BytePS treats sparse tensors as dense; its ByteScheduler priority
//     scheduling is a timing concern modeled by internal/perfsim).
//   - Parallax: embedding rows live on a sparse parameter-server shard on
//     their owning rank, reached by sparse AlltoAll pulls and pushes; dense
//     gradients use AllReduce.
//   - EmbRace: embeddings are column-wise partitioned across ranks (model
//     parallelism); lookup results and gradients travel by AlltoAll, dense
//     gradients by AllReduce (§4.1), optionally with Vertical Sparse
//     Scheduling and the modified Adam (§4.2.2, §5.7).
//
// All strategies are synchronous, so with identical seeds and batches they
// must produce identical parameters — the equivalence property the trainer
// tests enforce.
package strategies

import (
	"fmt"
	"slices"

	"embrace/internal/collective"
	"embrace/internal/nn"
	"embrace/internal/optim"
	"embrace/internal/tensor"
	"embrace/internal/trace"
)

// Name identifies a strategy.
type Name string

// The strategy names, matching the paper's baseline list.
const (
	HorovodAllReduce Name = "horovod-allreduce"
	HorovodAllGather Name = "horovod-allgather"
	BytePS           Name = "byteps"
	Parallax         Name = "parallax"
	EmbRace          Name = "embrace"
)

// AllNames lists every strategy in the paper's comparison order.
func AllNames() []Name {
	return []Name{BytePS, HorovodAllReduce, HorovodAllGather, Parallax, EmbRace}
}

// SchedMode selects EmbRace's scheduling level for the ablation study
// (Figure 9). Horizontal scheduling changes only timing, which the
// performance simulator models; in real-execution mode the observable
// difference is the vertical split and its modified-Adam update.
type SchedMode int

const (
	// SchedNone applies each embedding gradient as one whole update
	// ("EmbRace w/o Scheduling").
	SchedNone SchedMode = iota
	// Sched2D runs Algorithm 1: coalesce, split against the prefetched
	// next batch, apply prior and delayed parts separately.
	Sched2D
)

// ParseSched resolves a scheduling-level name for real execution: "none"
// (or empty) and "2d". Horizontal scheduling changes only timing, so it is
// a simulation level, and is rejected here like any unknown name.
func ParseSched(level string) (SchedMode, error) {
	switch level {
	case "none", "":
		return SchedNone, nil
	case "2d":
		return Sched2D, nil
	default:
		return SchedNone, fmt.Errorf("strategies: unknown real-execution scheduling level %q (want none or 2d; horizontal is simulation-only)", level)
	}
}

// OptimizerKind selects the parameter-update rule.
type OptimizerKind string

// Supported optimizers.
const (
	OptSGD  OptimizerKind = "sgd"
	OptAdam OptimizerKind = "adam"
)

// Config describes one real-execution training job.
type Config struct {
	// Seed controls all parameter initialization; every rank derives the
	// same initial model from it.
	Seed int64
	// Vocab, EmbDim, Hidden size the nn.Model.
	Vocab, EmbDim, Hidden int
	// Optimizer selects the update rule for every parameter.
	Optimizer OptimizerKind
	// LR is the learning rate.
	LR float32
	// Sched selects EmbRace's scheduling mode; ignored by baselines.
	Sched SchedMode
	// InitEmbedding and InitTrunk, when set, override the seed-derived
	// initial parameters — the warm-start hook checkpoint resume uses.
	// InitTrunk keys follow Trunk.Params ("w1", "b1", "w2", "b2").
	InitEmbedding *tensor.Dense
	InitTrunk     map[string]*tensor.Dense
}

// Validate reports configuration errors. workers is the world size the
// config will run under.
func (c Config) Validate(workers int) error {
	if c.Vocab < 2 || c.EmbDim < 1 || c.Hidden < 1 {
		return fmt.Errorf("strategies: bad model dims vocab=%d emb=%d hidden=%d", c.Vocab, c.EmbDim, c.Hidden)
	}
	if c.LR <= 0 {
		return fmt.Errorf("strategies: learning rate must be positive, got %g", c.LR)
	}
	switch c.Optimizer {
	case OptSGD, OptAdam:
	default:
		return fmt.Errorf("strategies: unknown optimizer %q", c.Optimizer)
	}
	if workers <= 0 {
		return fmt.Errorf("strategies: workers must be positive, got %d", workers)
	}
	if c.EmbDim%workers != 0 {
		return fmt.Errorf("strategies: EmbDim %d not divisible by %d workers (column-wise partitioning)", c.EmbDim, workers)
	}
	if c.InitEmbedding != nil &&
		(c.InitEmbedding.Dims() != 2 || c.InitEmbedding.Dim(0) != c.Vocab || c.InitEmbedding.Dim(1) != c.EmbDim) {
		return fmt.Errorf("strategies: InitEmbedding shape %v != [%d x %d]",
			c.InitEmbedding.Shape(), c.Vocab, c.EmbDim)
	}
	return nil
}

// newInitialModel builds the starting model: seed-derived, with any
// warm-start overrides applied. Every strategy uses it so all replicas and
// shards begin identical.
func newInitialModel(cfg Config) *nn.Model {
	m := nn.NewModel(cfg.Seed, cfg.Vocab, cfg.EmbDim, cfg.Hidden)
	if cfg.InitEmbedding != nil {
		copy(m.Emb.Table.Data(), cfg.InitEmbedding.Data())
	}
	for _, p := range m.Trunk.Params() {
		if init, ok := cfg.InitTrunk[p.Name]; ok && init.Len() == p.Tensor.Len() {
			copy(p.Tensor.Data(), init.Data())
		}
	}
	return m
}

// Worker is one rank's strategy instance.
type Worker interface {
	// Strategy returns the strategy name.
	Strategy() Name
	// Step trains on one batch: windows/targets are this rank's training
	// pairs; nextTokens are the token ids of this rank's prefetched next
	// batch (used only by EmbRace's vertical scheduling). Returns the
	// rank-local batch metrics. EmbRace returns with the step's trunk update
	// still in flight; the next Step or FullEmbedding joins it.
	Step(step int, windows [][]int64, targets []int64, nextTokens []int64) (nn.StepStats, error)
	// FullEmbedding returns this rank's view of the complete embedding
	// table. Collective for EmbRace (column shards are gathered) and
	// Parallax (owned rows are gathered), local otherwise.
	FullEmbedding() (*tensor.Dense, error)
	// Trunk returns the rank's dense trunk parameters, current after
	// FullEmbedding.
	Trunk() *nn.Trunk
	// Drain waits out every background operation the worker has in flight
	// and discards its result: the teardown of a rank that failed anywhere,
	// in Step and FullEmbedding too (they leave their lanes running on
	// error). Call it only once the rank has left the world: a lane may be
	// waiting on a peer only the departure wakes. The worker must not be
	// used afterwards.
	Drain()
}

// Shared is the per-world state handed to every NewWorker call of a job.
// Every strategy keeps its server state on its ranks, so it is empty; it
// stays for the callers that still pass it.
type Shared struct{}

// Logical operation names: every collective of a step runs under one of
// these through the Communicator, which gives each op its own collision-free
// tag and checks the step each frame carries. Collectives of distinct ops can
// be in flight concurrently without crosstalk, and traffic is attributed per
// logical op by the metrics observer. The trainer and examples reuse the same
// names so the tag space has a single owner.
const (
	// OpTokens gathers every rank's token windows (EmbRace step 1).
	OpTokens = "emb/tokens"
	// OpEmbData is the pooled-activation AlltoAll ("Emb Data", Figure 5).
	OpEmbData = "emb/data"
	// OpEmbGrad is the embedding-gradient exchange — AlltoAll for EmbRace,
	// AllGather/AllReduce for the Horovod baselines, the push to the row
	// owners for Parallax.
	OpEmbGrad = "emb/grad"
	// OpEmbDelayed is the background delayed-gradient AlltoAll (§4.2.2).
	OpEmbDelayed = "emb/delayed"
	// OpEmbPrior is the immediate prior-gradient exchange of Algorithm 1's
	// split (used by the sequence trainer, where prior and delayed parts
	// travel as separate AllGathers).
	OpEmbPrior = "emb/prior"
	// OpNextBatch gathers the prefetched next-batch token ids (Algorithm 1).
	OpNextBatch = "emb/next-batch"
	// OpGatherEmb reassembles the full embedding table from column shards
	// (EmbRace) or row owners (Parallax); it runs outside the step loop,
	// always at step 0.
	OpGatherEmb = "emb/gather-table"
	// OpPSPullReq / OpPSPullRows are Parallax's pull: each rank asks the
	// owners for the rows its batch reads, and the owners reply with their
	// values.
	OpPSPullReq  = "ps/pull-req"
	OpPSPullRows = "ps/pull-rows"
	// OpPSDense is BytePS's push and pull of every parameter: one ring pass
	// over the embedding table and the trunk.
	OpPSDense = "ps/dense"
	// OpStats gathers per-rank step metrics at rank 0.
	OpStats = "trainer/stats"
	// OpTrunk is the dense-gradient AllReduce of the whole trunk (or the
	// sequence trainer's GRU): every block in one ring pass.
	OpTrunk = "dense/trunk"
)

// Span names: the phases every worker marks on its per-rank trace.Recorder
// (compute track unless noted). Stable strings, because PhaseSeconds
// aggregates by them and the trace tests assert ordering between them.
// All timing flows through the recorder's injected clock — this package
// stays inside the embracevet determinism analyzer's coverage and never
// reads the wall clock itself.
const (
	// SpanFP / SpanBP are the dense trunk's forward and backward passes;
	// SpanFPBP is the fused step of workers whose model runs both in one
	// call (the data-parallel baselines).
	SpanFP   = "fp"
	SpanBP   = "bp"
	SpanFPBP = "fp+bp"
	// SpanLookup is EmbRace's shard-side embedding lookup plus the
	// assembly of the pooled activations from the AlltoAll'd columns.
	SpanLookup = "emb/lookup"
	// SpanEmbExchange is the blocking embedding-gradient exchange (whole
	// gradient for the baselines and un-scheduled EmbRace).
	SpanEmbExchange = "xchg/emb"
	// SpanPriorExchange / SpanDelayedExchange are Algorithm 1's two
	// exchanges: prior blocks the step loop, delayed runs on its own
	// goroutine and lands on trace.TrackBackground — the overlap §4.2.2
	// claims, now visible.
	SpanPriorExchange   = "xchg/prior"
	SpanDelayedExchange = "xchg/delayed"
	// SpanHarvestDelayed is the wait-and-apply of the previous step's
	// delayed exchange, just before a step's vertical split.
	SpanHarvestDelayed = "sched/harvest-delayed"
	// SpanVSplit is the prior/delayed partition of Algorithm 1.
	SpanVSplit = "sched/vsplit"
	// SpanEmbUpdate / SpanPriorUpdate are the embedding optimizer calls.
	SpanEmbUpdate   = "opt/emb"
	SpanPriorUpdate = "opt/prior"
	// SpanPSPush / SpanPSPull are the PS strategies' exchanges with the
	// server shards: the gradient push with its update, and the parameter
	// pull.
	SpanPSPush = "ps/push"
	SpanPSPull = "ps/pull"
	// SpanTrunk is the trunk's dense AllReduce-and-update (exchangeTrunk).
	// EmbRace runs it on its own goroutine, so there it lands on
	// trace.TrackBackground.
	SpanTrunk = "xchg/dense:trunk"
)

// WorkerOption configures a strategy worker beyond its Config.
type WorkerOption func(*workerExtras)

// workerExtras holds the per-rank extras threaded into workers.
type workerExtras struct {
	rec      *trace.Recorder
	embShard *tensor.Dense
}

// WithRecorder threads a per-rank span recorder through the worker: every
// step phase (FP/BP, embedding exchanges, prior/delayed scheduling, PS
// round trips) is marked on it. A nil recorder disables tracing at the
// cost of one pointer compare per phase.
func WithRecorder(rec *trace.Recorder) WorkerOption {
	return func(e *workerExtras) { e.rec = rec }
}

// WithEmbShard hands an EmbRace worker its [vocab x EmbDim/N] embedding
// column shard directly instead of slicing it out of the full (seed-derived
// or InitEmbedding) table — the per-rank warm start of an elastic world
// rebuild, where each survivor restores exactly its new columns from the
// last checkpoint without any rank materializing the full table. The shard
// is copied, never aliased, so the caller's tensor (typically a checkpoint
// slice shared across ranks) stays untouched by training. Rejected by
// non-EmbRace strategies, which have no column shards.
func WithEmbShard(shard *tensor.Dense) WorkerOption {
	return func(e *workerExtras) { e.embShard = shard }
}

// newOptimizer binds the configured optimizer kind to a whole parameter.
func newOptimizer(cfg Config, param *tensor.Dense) optim.Optimizer {
	return newRangeOptimizer(cfg.Optimizer, cfg.LR, param, 0, param.Len())
}

// newRangeOptimizer binds an optimizer of the given kind to elements [lo, hi)
// of param's flat data: the one map from OptimizerKind to an optimizer.
func newRangeOptimizer(kind OptimizerKind, lr float32, param *tensor.Dense, lo, hi int) optim.Optimizer {
	switch kind {
	case OptAdam:
		return optim.NewAdamRange(param, lo, hi, lr)
	default:
		return optim.NewSGDRange(param, lo, hi, lr)
	}
}

// DenseShards is the ring-sharded dense optimizer. It sums dense gradient
// blocks across ranks and applies them to their parameters at the wire cost
// of one ring AllReduce, but each rank keeps the optimizer state of, and runs
// the update on, only its own ring chunk of every block — Parallax's rule:
// state lives with whoever writes it. The reduce-scatter leaves chunk r of
// every gradient block summed on rank r; rank r updates that chunk of every
// parameter; the all-gather then ships the updated parameters instead of the
// summed gradients. The update is element-wise, so every rank ends with the
// bits a replicated optimizer would compute from the all-reduced gradient,
// holding 1/N of its moments and doing 1/N of its work.
type DenseShards struct {
	cm     *collective.Communicator
	names  []string
	params [][]float32
	opts   []optim.Optimizer // opts[i] is bound to this rank's chunk of params[i]
}

// NewDenseShards binds a sharded optimizer of the given kind to params, in
// the order Step takes their gradients. Every rank must pass parameters of
// the same shapes in the same order.
func NewDenseShards(cm *collective.Communicator, kind OptimizerKind, lr float32, params []nn.NamedParam) *DenseShards {
	d := &DenseShards{cm: cm}
	for _, p := range params {
		lo, hi := cm.ChunkOf(p.Tensor.Len())
		d.names = append(d.names, p.Name)
		d.params = append(d.params, p.Tensor.Data())
		d.opts = append(d.opts, newRangeOptimizer(kind, lr, p.Tensor, lo, hi))
	}
	return d
}

// Step sums grads (one per parameter, in NewDenseShards order) across ranks
// under (op, step) and applies them: Push, then Pull. grads are consumed:
// only this rank's chunk of each ends summed.
func (d *DenseShards) Step(op string, step int, grads ...*tensor.Dense) error {
	if err := d.Push(op, step, grads...); err != nil {
		return err
	}
	return d.Pull(op, step)
}

// Push reduce-scatters grads under (op, step) and applies this rank's summed
// chunk of each to its chunk of the parameter. Until Pull, only that chunk
// of every parameter is current.
func (d *DenseShards) Push(op string, step int, grads ...*tensor.Dense) error {
	bufs := make([][]float32, len(grads))
	for i, g := range grads {
		bufs[i] = g.Data()
	}
	if err := d.cm.ReduceScatterBlocks(op, step, bufs...); err != nil {
		return err
	}
	for i, g := range grads {
		if err := d.opts[i].StepDense(g); err != nil {
			return fmt.Errorf("%s update: %w", d.names[i], err)
		}
	}
	return nil
}

// Pull all-gathers every rank's updated chunk of every parameter under
// (op, step).
func (d *DenseShards) Pull(op string, step int) error {
	return d.cm.AllGatherBlocks(op, step, d.params...)
}

// exchangeTrunk sums the trunk gradients across ranks and applies the trunk
// updates through the sharded optimizer: the dense half of §4.1.3's hybrid.
// Every strategy that AllReduces its trunk goes through it, which is what
// keeps them bit-identical to each other. track is the lane of the calling
// goroutine.
func exchangeTrunk(rec *trace.Recorder, track trace.Track, shards *DenseShards, step int, g *nn.TrunkGrads) error {
	sp := rec.Begin(track, SpanTrunk, step)
	defer sp.End()
	if err := shards.Step(OpTrunk, step, g.W1, g.B1, g.W2, g.B2); err != nil {
		return fmt.Errorf("trunk: %w", err)
	}
	return nil
}

// NewShared validates cfg for the named strategy in a world of `workers`
// ranks and returns the Shared to pass to every NewWorker call of the job.
func NewShared(name Name, cfg Config, workers int) (*Shared, error) {
	if err := cfg.Validate(workers); err != nil {
		return nil, err
	}
	if !slices.Contains(AllNames(), name) {
		return nil, fmt.Errorf("strategies: unknown strategy %q", name)
	}
	return &Shared{}, nil
}

// NewWorker creates rank `cm.Rank()`'s worker for the named strategy. All
// collectives of the worker run through cm, which owns tag allocation (and,
// when configured, chunked pipelining and per-op traffic attribution).
// Options thread per-rank extras — a trace.Recorder via WithRecorder — that
// cannot live in the job-wide Config.
func NewWorker(name Name, cm *collective.Communicator, cfg Config, _ *Shared, opts ...WorkerOption) (Worker, error) {
	if err := cfg.Validate(cm.Size()); err != nil {
		return nil, err
	}
	var extras workerExtras
	for _, o := range opts {
		o(&extras)
	}
	rec := extras.rec
	if extras.embShard != nil {
		if name != EmbRace {
			return nil, fmt.Errorf("strategies: WithEmbShard applies only to embrace, not %s", name)
		}
		want := cfg.EmbDim / cm.Size()
		if extras.embShard.Dims() != 2 || extras.embShard.Dim(0) != cfg.Vocab || extras.embShard.Dim(1) != want {
			return nil, fmt.Errorf("strategies: WithEmbShard shape %v != [%d x %d]",
				extras.embShard.Shape(), cfg.Vocab, want)
		}
	}
	switch name {
	case HorovodAllReduce:
		return newAllReduceWorker(cm, cfg, rec), nil
	case HorovodAllGather:
		return newAllGatherWorker(cm, cfg, rec), nil
	case Parallax:
		return newParallaxWorker(cm, cfg, rec), nil
	case BytePS:
		return newBytePSWorker(cm, cfg, rec), nil
	case EmbRace:
		return newEmbRaceWorker(cm, cfg, rec, extras.embShard), nil
	default:
		return nil, fmt.Errorf("strategies: unknown strategy %q", name)
	}
}
