// Package embrace is a Go reproduction of "EmbRace: Accelerating Sparse
// Communication for Distributed Training of Deep Neural Networks"
// (Li et al., ICPP 2022).
//
// It exposes the three things a downstream user needs:
//
//   - Real distributed training (Train): N in-process ranks train a real
//     embedding+MLP model with genuine collective data movement under any of
//     the paper's five strategies — the four baselines or EmbRace's hybrid
//     AlltoAll/AllReduce communication with 2D scheduling and the modified
//     Adam optimizer. TrainRank runs the same job, under any strategy, one
//     rank per OS process over TCP.
//
//   - Performance simulation (Simulate): a calibrated discrete-event model
//     of the paper's two GPU clusters that predicts step time and
//     Computation Stall for the paper's four NLP models under every
//     strategy, reproducing the evaluation's figures.
//
//   - Experiment harnesses (RunExperiment): regenerate every table and
//     figure of the paper's evaluation section.
//
// The substrates — tensors, collectives, schedulers, the network cost model —
// live under internal/ and are documented in DESIGN.md.
package embrace

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"embrace/internal/checkpoint"
	"embrace/internal/comm"
	"embrace/internal/data"
	"embrace/internal/experiments"
	"embrace/internal/metrics"
	"embrace/internal/modelzoo"
	"embrace/internal/perfsim"
	"embrace/internal/simnet"
	"embrace/internal/strategies"
	"embrace/internal/tensor"
	"embrace/internal/trace"
	"embrace/internal/trainer"
)

// Strategy names a distributed training strategy (§5.2.3).
type Strategy = strategies.Name

// The five strategies of the paper's evaluation.
const (
	BytePS           = strategies.BytePS
	HorovodAllReduce = strategies.HorovodAllReduce
	HorovodAllGather = strategies.HorovodAllGather
	Parallax         = strategies.Parallax
	EmbRace          = strategies.EmbRace
)

// Strategies returns all strategies in the paper's comparison order.
func Strategies() []Strategy {
	return []Strategy{BytePS, HorovodAllReduce, HorovodAllGather, Parallax, EmbRace}
}

// SchedLevel selects EmbRace's scheduling level (the Figure-9 ablation).
type SchedLevel string

// Scheduling levels.
const (
	// SchedNone is hybrid communication only ("EmbRace w/o Scheduling").
	SchedNone SchedLevel = "none"
	// SchedHorizontal adds Block-level Horizontal Scheduling (§4.2.1).
	SchedHorizontal SchedLevel = "horizontal"
	// Sched2D adds Vertical Sparse Scheduling on top (§4.2.2) — full
	// EmbRace.
	Sched2D SchedLevel = "2d"
)

// GPU selects one of the paper's cluster types.
type GPU string

// The paper's GPU kinds.
const (
	RTX3090 GPU = "RTX3090"
	RTX2080 GPU = "RTX2080"
)

func (g GPU) kind() (modelzoo.GPUKind, error) {
	switch g {
	case RTX3090:
		return modelzoo.RTX3090, nil
	case RTX2080:
		return modelzoo.RTX2080, nil
	default:
		return 0, fmt.Errorf("embrace: unknown GPU %q", g)
	}
}

// perfStrategies maps each strategy to its simulator model.
var perfStrategies = map[Strategy]perfsim.Strategy{
	BytePS:           perfsim.StratBytePS,
	HorovodAllReduce: perfsim.StratAllReduce,
	HorovodAllGather: perfsim.StratAllGather,
	Parallax:         perfsim.StratParallax,
	EmbRace:          perfsim.StratEmbRace,
}

func (l SchedLevel) perf() (perfsim.SchedMode, error) {
	switch l {
	case SchedNone, "":
		return perfsim.SchedDefault, nil
	case SchedHorizontal:
		return perfsim.SchedHorizontal, nil
	case Sched2D:
		return perfsim.Sched2D, nil
	default:
		return 0, fmt.Errorf("embrace: unknown scheduling level %q", l)
	}
}

// ---------------------------------------------------------------------------
// Performance simulation
// ---------------------------------------------------------------------------

// SimJob describes one performance-simulation run.
type SimJob struct {
	// Model is one of the paper's models: "LM", "GNMT-8", "Transformer",
	// "BERT-base".
	Model string
	// GPU selects the cluster type; GPUs the total worker count (4, 8 or
	// 16 in the paper; any multiple of 4, or 1/2, works).
	GPU  GPU
	GPUs int
	// Strategy selects the communication strategy; Sched the EmbRace
	// scheduling level (ignored by baselines).
	Strategy Strategy
	Sched    SchedLevel
}

// SimResult reports a simulated steady-state training iteration.
type SimResult struct {
	// StepSeconds is the steady-state step time.
	StepSeconds float64
	// StallSeconds is the Computation Stall (§5.4).
	StallSeconds float64
	// ComputeSeconds is the useful FP+BP compute per step.
	ComputeSeconds float64
	// TokensPerSec is throughput in the paper's metric.
	TokensPerSec float64
}

// Simulate runs the calibrated discrete-event performance model for the job.
func Simulate(job SimJob) (SimResult, error) {
	met, _, rawRows, err := job.run()
	if err != nil {
		return SimResult{}, err
	}
	return SimResult{
		StepSeconds:    met.StepTime,
		StallSeconds:   met.Stall,
		ComputeSeconds: met.UsefulCompute,
		TokensPerSec:   rawRows * float64(job.GPUs) / met.StepTime,
	}, nil
}

// SimulateTrace runs the performance simulation for the job and writes the
// resulting execution timeline as Chrome trace-event JSON (viewable in
// chrome://tracing or Perfetto) — an interactive Figure 6.
func SimulateTrace(job SimJob, w io.Writer) error {
	_, tl, _, err := job.run()
	if err != nil {
		return err
	}
	title := fmt.Sprintf("%s / %s @ %dx %s", job.Model, job.Strategy, job.GPUs, job.GPU)
	return trace.Export(w, title, tl)
}

// run resolves the job against the model zoo and cluster calibration and
// simulates six steps. rawRows is the model's measured per-GPU raw
// embedding rows (tokens) per step.
func (job SimJob) run() (met perfsim.StepMetrics, tl *perfsim.Timeline, rawRows float64, err error) {
	gpu, err := job.GPU.kind()
	if err != nil {
		return met, nil, 0, err
	}
	strat, ok := perfStrategies[job.Strategy]
	if !ok {
		return met, nil, 0, fmt.Errorf("embrace: unknown strategy %q", job.Strategy)
	}
	mode, err := job.Sched.perf()
	if err != nil {
		return met, nil, 0, err
	}
	m, err := modelzoo.ByName(job.Model)
	if err != nil {
		return met, nil, 0, err
	}
	st, err := m.MeasureGradStats(gpu, 10, 42)
	if err != nil {
		return met, nil, 0, err
	}
	cl, err := modelzoo.NewCluster(gpu, job.GPUs)
	if err != nil {
		return met, nil, 0, err
	}
	est, err := cl.Estimator()
	if err != nil {
		return met, nil, 0, err
	}
	spec := m.PerfSpec(gpu, st, strat == perfsim.StratEmbRace)
	met, tl, err = perfsim.RunJob(spec, strat, mode, est, 6)
	return met, tl, st.RawRows, err
}

// Models returns the names of the paper's four models.
func Models() []string {
	out := make([]string, 0, 4)
	for _, m := range modelzoo.All() {
		out = append(out, m.Name)
	}
	return out
}

// ---------------------------------------------------------------------------
// Real distributed training
// ---------------------------------------------------------------------------

// TrainConfig describes a real-execution training run: N rank goroutines
// train an embedding+MLP next-token model on a synthetic Zipf corpus with
// genuine collective communication.
type TrainConfig struct {
	// Strategy selects the communication strategy; Sched the EmbRace
	// scheduling level.
	Strategy Strategy
	Sched    SchedLevel
	// Workers is the number of ranks. EmbRace requires EmbDim%Workers==0.
	Workers int
	// Steps is the number of training iterations.
	Steps int
	// Vocab, EmbDim, Hidden size the model; zero values pick defaults
	// (2000, 32, 32).
	Vocab, EmbDim, Hidden int
	// BatchSentences per worker per step; zero picks 16.
	BatchSentences int
	// Adam selects the Adam optimizer (with the §5.7 modification under
	// EmbRace 2D); false selects SGD.
	Adam bool
	// LR is the learning rate; zero picks 0.01.
	LR float32
	// Seed makes the run deterministic.
	Seed int64
	// OverTCP carries all collective traffic over real loopback TCP
	// sockets instead of the in-process fabric; results are identical.
	OverTCP bool
	// CheckpointPath, when set, saves the final parameters (embedding +
	// trunk) and completed step count there.
	CheckpointPath string
	// ResumeFrom, when set, warm-starts from a checkpoint written by a run
	// with the SAME configuration: parameters are restored and the data
	// stream fast-forwards past the already-trained steps. With SGD the
	// resumed run is bit-identical to an uninterrupted one; Adam resumes
	// parameters but starts with fresh moments.
	ResumeFrom string
	// ChaosSeed, when non-zero, trains over a deterministic fault-injecting
	// transport (comm.MaskableChaosPlan: message delay, duplication,
	// reordering and transient send failures, all drawn from this seed).
	// The self-healing collectives mask every injected fault, so results
	// are bit-identical to ChaosSeed == 0; the fault counts land in
	// TrainResult. Incompatible with OverTCP.
	ChaosSeed int64
	// TracePath, when set, records per-rank execution spans during the run
	// and writes them there as Chrome trace-event JSON (open in Perfetto or
	// chrome://tracing). The per-phase time breakdown lands in
	// TrainResult.PhaseSeconds.
	TracePath string
	// Elastic runs the job under the self-healing supervisor (DESIGN.md
	// §13): on an attributed rank crash the run rolls back to its last
	// in-memory snapshot, shrinks the world by the dead ranks (redistributing
	// EmbRace's embedding columns across the survivors) and resumes; the
	// training trajectory stays bit-identical to an uninterrupted run of the
	// same effective batch schedule. Incompatible with OverTCP (the
	// supervisor rebuilds in-process worlds) and TracePath. The epoch
	// segmentation lands in TrainResult.Elastic.
	Elastic bool
	// ElasticCheckpointEvery is the snapshot cadence in steps; a fault rolls
	// back at most ElasticCheckpointEvery-1 steps. Zero picks the trainer
	// default (5).
	ElasticCheckpointEvery int
	// ElasticRejoin readmits recovered ranks: ElasticRejoinAfter steps after
	// a shrink (zero: the checkpoint cadence) the shrunk world stops at a
	// step boundary and the next epoch resumes at full size.
	ElasticRejoin      bool
	ElasticRejoinAfter int
	// CrashRank and CrashStep inject a deterministic rank failure for
	// elastic demos and experiments: rank CrashRank crashes on its first
	// send of training step CrashStep's embedding-data AlltoAll under EmbRace
	// (the first wire operation after the step's token-gather rendezvous), of
	// the embedding-gradient collective under the Horovod baselines. Enabled
	// when CrashStep > 0 and Elastic is set; the surrounding chaos noise is
	// drawn from ChaosSeed (or seed 1 when ChaosSeed is zero).
	CrashRank, CrashStep int
}

// TrainResult reports a completed training run.
type TrainResult struct {
	// Losses holds the per-step mean training loss.
	Losses []float64
	// Accuracies holds the per-step top-1 next-token accuracy.
	Accuracies []float64
	// FinalPPL is the perplexity of the last step.
	FinalPPL float64
	// TokensTrained counts non-pad tokens consumed.
	TokensTrained int
	// CommBytes is the measured communication payload across all ranks;
	// CommMessages the message count. Comparing strategies' CommBytes on
	// the same job reproduces the paper's traffic analysis with real data.
	CommBytes    int64
	CommMessages int64
	// CommPerOp breaks the traffic down by logical collective operation
	// (summed over ranks): e.g. "emb/grad" vs "dense/trunk" vs
	// "trainer/stats". It shows WHERE a strategy's bytes go, the per-op
	// refinement of CommBytes.
	CommPerOp map[string]OpTraffic
	// FaultsMasked counts communication faults the self-healing collectives
	// absorbed (non-zero only under ChaosSeed); FaultsFatal counts faults
	// that surfaced as errors (always zero when Train returns nil error).
	FaultsMasked, FaultsFatal int64
	// PhaseSeconds sums measured span durations by phase name across all
	// ranks (only when TracePath was set): e.g. "fp+bp" vs "xchg/prior" vs
	// "xchg/delayed" — where the run's wall time went.
	PhaseSeconds map[string]float64
	// Elastic records the world-epoch segmentation of an elastic run (only
	// when TrainConfig.Elastic was set): one entry per world build, in
	// order. Recoveries counts the faults the supervisor absorbed.
	Elastic    []ElasticEpoch
	Recoveries int
}

// ElasticEpoch summarizes one world epoch of an elastic run: which global
// steps it contributed, at what world size, and how it ended ("completed",
// "fault", or "rejoin" — stopped so recovered ranks could be readmitted).
type ElasticEpoch = trainer.EpochInfo

// OpTraffic is the measured traffic of one logical collective operation,
// summed over ranks.
type OpTraffic = metrics.OpStats

// job is the one place a training job is built from a TrainConfig. An
// unknown strategy is rejected where the trainer builds its workers.
func (c TrainConfig) job() (trainer.Job, error) {
	name := c.Strategy
	if name == "" {
		name = EmbRace
	}
	sched, err := strategies.ParseSched(string(c.Sched))
	if err != nil {
		return trainer.Job{}, err
	}
	opt := strategies.OptSGD
	if c.Adam {
		opt = strategies.OptAdam
	}
	vocab := c.Vocab
	if vocab == 0 {
		vocab = 2000
	}
	embDim := c.EmbDim
	if embDim == 0 {
		embDim = 32
	}
	hidden := c.Hidden
	if hidden == 0 {
		hidden = 32
	}
	batch := c.BatchSentences
	if batch == 0 {
		batch = 16
	}
	lr := c.LR
	if lr == 0 {
		lr = 0.01
	}
	job := trainer.Job{
		Strategy: name,
		Workers:  c.Workers,
		Steps:    c.Steps,
		Window:   4,
		Model: strategies.Config{
			Seed:      c.Seed,
			Vocab:     vocab,
			EmbDim:    embDim,
			Hidden:    hidden,
			Optimizer: opt,
			LR:        lr,
			Sched:     sched,
		},
		Data: data.Config{
			VocabSize:      vocab,
			BatchSentences: batch,
			MaxSeqLen:      10,
			MinSeqLen:      6,
			ZipfS:          1.5,
			ZipfV:          4,
		},
		DataSeed: c.Seed + 1,
		OverTCP:  c.OverTCP,
	}
	if c.ChaosSeed != 0 {
		plan := comm.MaskableChaosPlan(c.ChaosSeed)
		job.Chaos = &plan
	}
	return job, nil
}

// SeqTrainConfig describes distributed training of the recurrent model
// (embedding -> GRU -> softmax): per-token sparse embedding gradients, the
// gradient structure of the paper's translation models.
type SeqTrainConfig struct {
	// Workers, Steps and Window (BPTT length) shape the job.
	Workers, Steps, Window int
	// Vocab, EmbDim, Hidden size the model; zero values pick defaults
	// (500, 12, 16).
	Vocab, EmbDim, Hidden int
	// BatchSentences per worker per step; zero picks 12.
	BatchSentences int
	// Vertical enables Algorithm 1's prior/delayed split with the
	// modified Adam.
	Vertical bool
	// LR is the Adam learning rate; zero picks 0.01.
	LR float32
	// Seed makes the run deterministic.
	Seed int64
	// Text, when non-empty, trains on real sentences: a frequency-sorted
	// tokenizer is built over them (capped at Vocab ids) and rank r takes
	// every Workers-th sentence.
	Text []string
	// OverTCP runs ranks over loopback TCP.
	OverTCP bool
}

// TrainSeq runs real distributed training of the recurrent model.
func TrainSeq(cfg SeqTrainConfig) (*TrainResult, error) {
	vocab := cfg.Vocab
	if vocab == 0 {
		vocab = 500
	}
	embDim := cfg.EmbDim
	if embDim == 0 {
		embDim = 12
	}
	hidden := cfg.Hidden
	if hidden == 0 {
		hidden = 16
	}
	batch := cfg.BatchSentences
	if batch == 0 {
		batch = 12
	}
	lr := cfg.LR
	if lr == 0 {
		lr = 0.01
	}
	window := cfg.Window
	if window == 0 {
		window = 6
	}
	res, err := trainer.RunSeq(trainer.SeqJob{
		Workers:   cfg.Workers,
		Steps:     cfg.Steps,
		Window:    window,
		Vocab:     vocab,
		EmbDim:    embDim,
		Hidden:    hidden,
		LR:        lr,
		Vertical:  cfg.Vertical,
		Seed:      cfg.Seed,
		DataSeed:  cfg.Seed + 1,
		Text:      cfg.Text,
		TextBatch: batch,
		Data: data.Config{
			VocabSize:      vocab,
			BatchSentences: batch,
			MaxSeqLen:      window + 3,
			MinSeqLen:      window + 1,
			ZipfS:          1.6,
			ZipfV:          3,
		},
		OverTCP: cfg.OverTCP,
	})
	if err != nil {
		return nil, err
	}
	return trainResult(res), nil
}

// Train runs real distributed training and returns the loss curve.
func Train(cfg TrainConfig) (*TrainResult, error) {
	job, err := cfg.job()
	if err != nil {
		return nil, err
	}
	if cfg.ResumeFrom != "" {
		ckpt, err := checkpoint.LoadFile(cfg.ResumeFrom)
		if err != nil {
			return nil, err
		}
		job.Model.InitEmbedding = ckpt.Params["emb"]
		job.Model.InitTrunk = map[string]*tensor.Dense{}
		for name, p := range ckpt.Params {
			if name != "emb" {
				job.Model.InitTrunk[name] = p
			}
		}
		job.SkipBatches = ckpt.Step
	}
	if cfg.Elastic {
		return trainElastic(cfg, job)
	}
	job.Trace = cfg.TracePath != ""
	res, err := trainer.Run(job)
	if err != nil {
		return nil, err
	}
	if cfg.TracePath != "" {
		f, err := os.Create(cfg.TracePath)
		if err != nil {
			return nil, fmt.Errorf("embrace: trace output: %w", err)
		}
		title := fmt.Sprintf("%s (%d workers, real execution)", job.Strategy, job.Workers)
		if err := trace.ExportRecorders(f, title, res.Traces); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	if err := saveCheckpoint(cfg.CheckpointPath, job, res); err != nil {
		return nil, err
	}
	return trainResult(res), nil
}

// TrainRank runs rank `rank` of cfg's job as one OS process of a
// multi-process run: it binds peers[rank], meshes over TCP with the other
// ranks (each running TrainRank with the same cfg and peers) and trains. The
// world size is len(peers); a non-zero cfg.Workers must match it. Every
// strategy runs this way (the parameter-server baselines host one server
// shard per rank); the single-process options are rejected. Rank 0's result
// carries the losses, bit-identical to Train's; every rank's carries its own
// traffic.
func TrainRank(cfg TrainConfig, rank int, peers []string) (*TrainResult, error) {
	if cfg.Elastic || cfg.ChaosSeed != 0 || cfg.OverTCP || cfg.TracePath != "" || cfg.CheckpointPath != "" || cfg.ResumeFrom != "" {
		return nil, fmt.Errorf("embrace: TrainRank does not support Elastic, ChaosSeed, OverTCP, TracePath, CheckpointPath or ResumeFrom")
	}
	if cfg.Workers == 0 {
		cfg.Workers = len(peers)
	}
	if cfg.Workers != len(peers) {
		return nil, fmt.Errorf("embrace: %d workers but %d peers", cfg.Workers, len(peers))
	}
	job, err := cfg.job()
	if err != nil {
		return nil, err
	}
	// A bad config fails here, before the mesh blocks waiting on peers.
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if !slices.Contains(Strategies(), job.Strategy) {
		return nil, fmt.Errorf("embrace: unknown strategy %q", job.Strategy)
	}
	node, err := comm.NewTCPNode(rank, peers)
	if err != nil {
		return nil, err
	}
	defer node.Close()
	res, err := trainer.RunWorker(job, node)
	if err != nil {
		return nil, err
	}
	return trainResult(res), nil
}

// trainElastic runs the elastic branch of Train: supervised crash–shrink–
// rejoin execution with the epoch segmentation reported in the result. Like
// trainer.RunElastic, a run that exhausts its recovery budget returns the
// salvaged partial TrainResult ALONGSIDE the error.
func trainElastic(cfg TrainConfig, job trainer.Job) (*TrainResult, error) {
	if cfg.TracePath != "" {
		return nil, fmt.Errorf("embrace: TracePath is incompatible with Elastic (the supervisor rebuilds worlds mid-run)")
	}
	ej := trainer.ElasticJob{
		Job:             job,
		CheckpointEvery: cfg.ElasticCheckpointEvery,
		Rejoin:          cfg.ElasticRejoin,
		RejoinAfter:     cfg.ElasticRejoinAfter,
	}
	if cfg.CrashStep > 0 {
		seed := cfg.ChaosSeed
		if seed == 0 {
			seed = 1
		}
		plan := trainer.CrashPlan(seed, cfg.CrashRank, cfg.CrashStep)
		if job.Strategy != strategies.EmbRace {
			// The baselines have no embedding-data AlltoAll; pin the crash to
			// their first wire op, the embedding-gradient collective.
			plan.Rules[0].Match = trainer.CrashAt(strategies.OpEmbGrad, cfg.CrashStep)
		}
		ej.Chaos = &plan
	}
	res, runErr := trainer.RunElastic(ej)
	if res == nil {
		return nil, runErr
	}
	out := trainResult(&res.Result)
	out.Recoveries = res.Recoveries
	out.Elastic = res.Epochs
	if runErr != nil {
		return out, runErr
	}
	if err := saveCheckpoint(cfg.CheckpointPath, job, &res.Result); err != nil {
		return nil, err
	}
	return out, nil
}

// trainResult converts a trainer result into the public form.
func trainResult(res *trainer.Result) *TrainResult {
	out := &TrainResult{
		Losses:        res.Losses,
		Accuracies:    res.Accuracies,
		TokensTrained: res.TokensTrained,
		CommBytes:     res.Comm.PayloadBytes,
		CommMessages:  res.Comm.Messages,
		CommPerOp:     res.CommPerOp,
		FaultsMasked:  res.Comm.FaultsMasked,
		FaultsFatal:   res.Comm.FaultsFatal,
		PhaseSeconds:  res.PhaseSeconds,
	}
	if n := len(res.Losses); n > 0 {
		out.FinalPPL = perplexity(res.Losses[n-1])
	}
	return out
}

// saveCheckpoint writes a finished run's final parameters (embedding and
// trunk) and completed step count to path; an empty path writes nothing.
func saveCheckpoint(path string, job trainer.Job, res *trainer.Result) error {
	if path == "" {
		return nil
	}
	ckpt := &checkpoint.Checkpoint{
		Step:   job.SkipBatches + job.Steps,
		Params: map[string]*tensor.Dense{"emb": res.Embedding},
	}
	for _, p := range res.Trunk.Params() {
		ckpt.Params[p.Name] = p.Tensor
	}
	return checkpoint.SaveFile(path, ckpt)
}

func perplexity(loss float64) float64 { return math.Exp(loss) }

// ---------------------------------------------------------------------------
// Experiments
// ---------------------------------------------------------------------------

// ExperimentIDs lists the regenerable tables and figures.
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentTitle returns the human title of an experiment id.
func ExperimentTitle(id string) (string, error) { return experiments.Title(id) }

// RunExperiment regenerates one table or figure, writing paper-style rows.
func RunExperiment(id string, w io.Writer) error { return experiments.Run(id, w) }

// RunExperimentJSON regenerates one table or figure as structured JSON for
// plotting scripts and dashboards.
func RunExperimentJSON(id string, w io.Writer) error { return experiments.RunJSON(id, w) }

// RunAllExperiments regenerates every table and figure.
func RunAllExperiments(w io.Writer) error { return experiments.RunAll(w) }

// CommCost holds the paper's Table-2 analytic communication overheads for
// one sparse-tensor aggregation, in seconds.
type CommCost struct {
	AllToAll, AllReduce, PS, AllGather float64
}

// EstimateCommCost evaluates the Table-2 formulas: aggregating a tensor of
// denseMB megabytes with gradient density alpha across `workers` workers on
// `nodes` nodes at linkGbps per-link bandwidth. Useful for capacity planning
// before running the full simulator.
func EstimateCommCost(alpha, denseMB float64, workers, nodes int, linkGbps float64) (CommCost, error) {
	if alpha < 0 || alpha > 1 {
		return CommCost{}, fmt.Errorf("embrace: alpha %g out of [0,1]", alpha)
	}
	if denseMB <= 0 || workers <= 0 || nodes <= 0 || linkGbps <= 0 {
		return CommCost{}, fmt.Errorf("embrace: parameters must be positive")
	}
	m := denseMB * 1e6
	b := linkGbps / 8 * 1e9
	const beta = 15e-6
	return CommCost{
		AllToAll:  simnet.AllToAllCost(alpha, m, workers, b, beta),
		AllReduce: simnet.AllReduceCost(m, workers, b, beta),
		PS:        simnet.PSCost(alpha, m, workers, nodes, b, beta),
		AllGather: simnet.AllGatherCost(alpha, m, workers, b, beta),
	}, nil
}
