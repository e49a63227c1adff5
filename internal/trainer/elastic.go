// Elastic crash–shrink–rejoin training: a supervisor loop above the rank
// goroutines that survives rank loss instead of discarding the run.
//
// The paper's schedule assumes a fixed world; production systems cannot
// (NestPipe-scale recommendation jobs amortize 1,500+ accelerators — a full
// restart per crash is unaffordable). The fault substrate already exists in
// layers below: crashes surface as attributed FaultErrors wrapping
// comm.ErrPeerDown, checkpoint v2 gives a CRC-sealed recovery source, and
// the AlltoAll's self-send elision means a surviving rank's resident state
// is exact. This file composes them into a world-epoch protocol:
//
//	epoch e trains  ──fault──▶  shrink: survivors restore their REMAPPED
//	    │                        shard of the last in-memory snapshot
//	    │                        (partition.ColumnWise.Remap + checkpoint.
//	    │                        ColumnShard), epoch e+1 trains on W-k ranks
//	  stop-to-rejoin ◀── stepped ctl handshake (rank 0 drives, serve-style)
//	    │
//	  epoch e+2: the recovered rank is readmitted (comm.Readmit clears its
//	  down markers), Communicators rebuild behind a barrier in a fresh tag
//	  plane (collective.WithEpoch), so stale frames of the dead world are
//	  never matched.
//
// Effective batch schedule is preserved by SkipBatches: epoch e+1 resumes
// each rank's data stream exactly where the snapshot left it, so the
// crash–shrink–rejoin trajectory is bit-identical (lossless path) to an
// uninterrupted run of the same segment schedule — the property the elastic
// chaos suite asserts across world sizes and seeds.
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
	"embrace/internal/partition"
	"embrace/internal/strategies"
	"embrace/internal/tensor"
	"embrace/internal/trace"
)

// ElasticJob configures a supervised elastic run.
type ElasticJob struct {
	Job
	// CheckpointEvery is the in-memory snapshot cadence in steps: every
	// N-th step boundary gathers the full embedding and clones the trunk,
	// bounding fault rollback to N-1 steps. Zero picks DefaultCheckpointEvery.
	CheckpointEvery int
	// MaxRecoveries bounds how many faults the supervisor absorbs before
	// giving up and returning the partial result with the error. Zero picks
	// DefaultMaxRecoveries.
	MaxRecoveries int
	// Rejoin readmits recovered ranks: after a shrink, the shrunk world
	// stops at a ctl boundary (RejoinAfter steps in) and the next epoch
	// runs at full size again, with the recovered rank restored from the
	// stop snapshot like everyone else.
	Rejoin bool
	// RejoinAfter is how many steps the shrunk world trains before stopping
	// to readmit; zero picks the checkpoint cadence.
	RejoinAfter int
	// Clock times fault-to-recovery latency. Nil picks trace.NewWallClock()
	// — the injection point that keeps this package free of time.Now, per
	// the determinism analyzer; tests inject a counter.
	Clock trace.Clock
}

// Defaults for elastic knobs left zero.
const (
	DefaultCheckpointEvery = 5
	DefaultMaxRecoveries   = 2
)

// Epoch outcomes recorded in EpochInfo.End.
const (
	// EpochCompleted: the epoch trained to the job's last step.
	EpochCompleted = "completed"
	// EpochFault: the epoch died on an attributed fault; the supervisor
	// rolled back to the epoch's last snapshot and shrunk the world.
	EpochFault = "fault"
	// EpochRejoin: the epoch stopped at a ctl boundary so the next epoch
	// could readmit recovered ranks at full world size.
	EpochRejoin = "rejoin"
)

// EpochInfo describes one world epoch of an elastic run: which ranks ran,
// which global steps it contributed to the stitched trajectory, how it
// ended, and — when it follows a world transition — what the transition
// moved and how long it took.
type EpochInfo struct {
	// Epoch numbers the world rebuild; epoch 0 is the original world.
	Epoch int
	// Workers is the epoch's world size.
	Workers int
	// StartStep and EndStep bound the global steps [StartStep, EndStep)
	// this epoch contributed to the final trajectory. A faulted epoch
	// contributes only up to its last snapshot; the steps it trained past
	// it were rolled back (their tokens still count in TokensTrained).
	StartStep, EndStep int
	// End is how the epoch ended: EpochCompleted, EpochFault or EpochRejoin.
	End string
	// Fault is the first attributed fault of a faulted epoch; nil otherwise.
	Fault *FaultError
	// Crashed lists the ranks lost to the fault (old-world numbering).
	Crashed []int
	// Moves is the shard remap applied ENTERING this epoch (column spans
	// for EmbRace; empty for replicated-table strategies and for epoch 0).
	// From == To spans stayed resident on their surviving rank.
	Moves []partition.ShardMove
	// RecoverySeconds is the wall time from the previous epoch's end (fault
	// detected, or rejoin stop) to this epoch's world barrier — detection
	// to resumed-traffic latency. Zero for epoch 0.
	RecoverySeconds float64
}

// ElasticResult is a Result plus the supervisor's epoch segmentation.
type ElasticResult struct {
	Result
	// Epochs records every world epoch in order.
	Epochs []EpochInfo
	// Recoveries counts the faults absorbed.
	Recoveries int
}

// FaultErrors collects every attributed *FaultError in err's tree (the
// joined per-rank errors of a failed run), in traversal order. Callers pick
// the fault they care about — the supervisor wants any crashed rank's, a
// test wants a specific rank's — without re-implementing the unwrap walk.
func FaultErrors(err error) []*FaultError {
	var out []*FaultError
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if fe, ok := e.(*FaultError); ok {
			out = append(out, fe)
			return
		}
		switch x := e.(type) {
		case interface{ Unwrap() []error }:
			for _, c := range x.Unwrap() {
				walk(c)
			}
		case interface{ Unwrap() error }:
			walk(x.Unwrap())
		}
	}
	walk(err)
	return out
}

// CrashPlan builds the seeded chaos plan of the elastic suites: rank
// `victim` crashes on its first send of training step `step`'s embedding-data
// AlltoAll, over the standard maskable background noise drawn from seed. That
// is the first wire operation after the step's opening token gather, and the
// gather is a rendezvous: the victim has heard from every peer in `step`, so
// every earlier step — its stats gather included — is complete on every rank
// when the crash lands. (A crash on the token gather itself can land while
// the victim's own chaos-delayed messages of the previous step are still in
// flight, and take that step down with it.) The crash rule leads the rule
// list so noise cannot swallow the targeted send; the tag predicate pins it
// to epoch 0, so a readmitted victim cannot re-crash on a rebuilt world's
// tags.
func CrashPlan(seed int64, victim, step int) (comm.FaultPlan, error) {
	tag, err := collective.TagOf(strategies.OpEmbData, step)
	if err != nil {
		return comm.FaultPlan{}, err
	}
	crash := comm.Rule(comm.FaultCrash, 1)
	crash.From = victim
	crash.Match = func(pt comm.FaultPoint) bool { return pt.Tag == tag }
	plan := comm.MaskableChaosPlan(seed)
	plan.Rules = append([]comm.FaultRule{crash}, plan.Rules...)
	return plan, nil
}

// validate extends Job.Validate with the elastic constraints.
func (j ElasticJob) validate() error {
	if err := j.Job.Validate(); err != nil {
		return err
	}
	if j.OverTCP {
		return fmt.Errorf("trainer: elastic supervision rebuilds in-process worlds; drop OverTCP")
	}
	if j.Trace {
		return fmt.Errorf("trainer: elastic supervision does not record traces; drop Trace")
	}
	switch j.Strategy {
	case strategies.Parallax, strategies.BytePS:
		return fmt.Errorf("trainer: %s pins shared parameter servers to a fixed world; elastic supervision supports the collective strategies", j.Strategy)
	}
	return nil
}

// RunElastic executes the job under the elastic supervisor. On a fault it
// shrinks the world and resumes from the last snapshot; with Rejoin it
// later readmits recovered ranks. The returned ElasticResult is non-nil
// even when the final error is — like Run, recorded progress is salvage,
// not waste.
func RunElastic(job ElasticJob) (*ElasticResult, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	ckptEvery := job.CheckpointEvery
	if ckptEvery <= 0 {
		ckptEvery = DefaultCheckpointEvery
	}
	maxRec := job.MaxRecoveries
	if maxRec <= 0 {
		maxRec = DefaultMaxRecoveries
	}
	clock := job.Clock
	if clock == nil {
		clock = trace.NewWallClock()
	}

	res := &ElasticResult{Result: Result{
		Losses:     make([]float64, job.Steps),
		Accuracies: make([]float64, job.Steps),
	}}

	// The epoch-0 chaos world outlives its epoch: a full-size rejoin epoch
	// reuses it (readmitting the crashed rank) so stale in-flight frames of
	// the dead epoch are really present — and really ignored, because the
	// rebuilt Communicators tag in a fresh epoch plane.
	var chaosW *comm.ChaosWorld
	defer func() {
		if chaosW != nil {
			chaosW.Close()
		}
	}()

	workers := job.Workers
	done := 0 // global steps locked into the stitched trajectory
	var base *checkpoint.Checkpoint
	stopAfter := 0
	var transitionAt time.Duration
	var pendingMoves []partition.ShardMove
	inTransition := false

	for epoch := 0; ; epoch++ {
		spec := epochSpec{
			job:       job.Job,
			epoch:     epoch,
			workers:   workers,
			stepBase:  done,
			ckptEvery: ckptEvery,
			stopAfter: stopAfter,
			base:      base,
			clock:     clock,
		}
		out := runEpoch(spec, &chaosW)

		res.Comm = res.Comm.Add(out.res.Comm)
		res.addCommPerOp(out.res.CommPerOp)
		res.TokensTrained += out.res.TokensTrained

		info := EpochInfo{Epoch: epoch, Workers: workers, StartStep: done}
		if inTransition {
			info.RecoverySeconds = (out.readyAt - transitionAt).Seconds()
			info.Moves = pendingMoves
			inTransition, pendingMoves = false, nil
		}

		switch {
		case out.err == nil && !out.stopped:
			copy(res.Losses[done:], out.res.Losses)
			copy(res.Accuracies[done:], out.res.Accuracies)
			res.Embedding = out.res.Embedding
			res.Trunk = out.res.Trunk
			info.EndStep = job.Steps
			info.End = EpochCompleted
			res.Epochs = append(res.Epochs, info)
			return res, nil

		case out.err == nil: // stopped at a ctl boundary to readmit
			snap := out.snaps[len(out.snaps)-1]
			copy(res.Losses[done:done+snap.steps], out.res.Losses[:snap.steps])
			copy(res.Accuracies[done:done+snap.steps], out.res.Accuracies[:snap.steps])
			done += snap.steps
			base = snap.ckpt
			info.EndStep = done
			info.End = EpochRejoin
			res.Epochs = append(res.Epochs, info)
			pendingMoves = remapFor(job.Job, workers, job.Workers)
			transitionAt = clock()
			inTransition = true
			workers = job.Workers
			stopAfter = 0

		default: // fault
			faults := FaultErrors(out.err)
			if len(faults) == 0 {
				// Logic or configuration error, not a transport fault:
				// nothing a world rebuild can fix.
				res.Epochs = append(res.Epochs, info)
				return res, out.err
			}
			res.Recoveries++
			keep := 0
			if len(out.snaps) > 0 {
				snap := out.snaps[len(out.snaps)-1]
				keep = snap.steps
				base = snap.ckpt
			}
			copy(res.Losses[done:done+keep], out.res.Losses[:keep])
			copy(res.Accuracies[done:done+keep], out.res.Accuracies[:keep])
			done += keep
			info.EndStep = done
			info.End = EpochFault
			info.Crashed = out.crashed
			info.Fault = pickFault(faults, out.crashed)
			res.Epochs = append(res.Epochs, info)
			if res.Recoveries > maxRec {
				return res, fmt.Errorf("trainer: elastic recovery budget (%d) exhausted: %w", maxRec, out.err)
			}
			newWorkers := workers - len(out.crashed)
			if len(out.crashed) == 0 {
				// Fault without an identified crash (a timeout, a bare
				// WrapChaos partition): retry at the same size — the world
				// rebuild itself clears wedged transport state.
				newWorkers = workers
			}
			if newWorkers < 1 {
				return res, fmt.Errorf("trainer: every rank crashed: %w", out.err)
			}
			if err := job.Model.Validate(newWorkers); err != nil {
				return res, fmt.Errorf("trainer: cannot shrink world %d -> %d: %w", workers, newWorkers, err)
			}
			pendingMoves = remapFor(job.Job, workers, newWorkers)
			transitionAt = clock()
			inTransition = true
			if job.Rejoin && newWorkers < job.Workers {
				stopAfter = job.RejoinAfter
				if stopAfter <= 0 {
					stopAfter = ckptEvery
				}
			}
			workers = newWorkers
		}
	}
}

// remapFor plans the shard movement of a world resize: EmbRace's column
// shards follow partition.ColumnWise; the replicated-table strategies move
// nothing (every survivor already holds the full table).
func remapFor(job Job, oldN, newN int) []partition.ShardMove {
	if oldN == newN || job.Strategy != strategies.EmbRace {
		return nil
	}
	return partition.ColumnWise{}.Remap(job.Model.EmbDim, oldN, newN)
}

// pickFault prefers a crashed rank's attributed fault (the root cause) over
// a survivor's secondary ErrPeerDown observation.
func pickFault(faults []*FaultError, crashed []int) *FaultError {
	for _, fe := range faults {
		for _, r := range crashed {
			if fe.Rank == r {
				return fe
			}
		}
	}
	return faults[0]
}

// ---------------------------------------------------------------------------
// One world epoch.
// ---------------------------------------------------------------------------

// Ctl ops of the world-epoch protocol. The barrier is the pending-pointer
// handoff moment (serve.Reload's shape): every rank has built its worker —
// remapped shard restored — before any step traffic flows.
const (
	opElasticBarrier = "elastic/world"
	opElasticCtl     = "elastic/ctl"
)

// Stepped ctl decisions rank 0 sends at every step boundary.
const (
	ctlContinue   = 0
	ctlCheckpoint = 1
	ctlStop       = 2
)

type epochSpec struct {
	job       Job
	epoch     int
	workers   int
	stepBase  int // global steps already locked in before this epoch
	ckptEvery int
	stopAfter int // >0: stop at the first boundary >= this many epoch steps
	base      *checkpoint.Checkpoint
	clock     trace.Clock
}

// snapshotRec is one in-memory checkpoint taken at an epoch step boundary.
type snapshotRec struct {
	steps int // epoch-local steps the snapshot covers
	ckpt  *checkpoint.Checkpoint
}

type epochOutcome struct {
	res     *Result
	snaps   []snapshotRec
	stopped bool
	crashed []int
	readyAt time.Duration // clock() when rank 0 cleared the world barrier
	err     error
}

// runEpoch runs one world epoch: builds (or reuses) the fabric, spawns the
// rank goroutines, and joins their errors. The chaos world is created once
// at epoch 0 and reused for full-size epochs (rejoin readmits the crashed
// ranks on it); shrunk epochs get a fresh clean world, since a world's size
// is fixed at construction.
func runEpoch(spec epochSpec, chaosW **comm.ChaosWorld) *epochOutcome {
	n := spec.workers
	steps := spec.job.Steps - spec.stepBase
	out := &epochOutcome{res: &Result{
		Losses:     make([]float64, steps),
		Accuracies: make([]float64, steps),
	}}
	shared, err := strategies.NewShared(spec.job.Strategy, spec.job.Model, n)
	if err != nil {
		out.err = err
		return out
	}

	transports := make([]comm.Transport, n)
	crashedFn := func() []int { return nil }
	switch {
	case spec.job.Chaos != nil && spec.epoch == 0:
		cw, err := comm.NewChaosWorld(n, *spec.job.Chaos)
		if err != nil {
			out.err = err
			return out
		}
		*chaosW = cw // supervisor owns its lifetime
		for i := range transports {
			transports[i] = cw.Rank(i)
		}
		crashedFn = cw.Crashed
	case *chaosW != nil && n == (*chaosW).Size():
		// Full-size epoch over the original chaos world: readmit every
		// rank (survivors left during the cascade too), keep the plan's
		// maskable noise flowing, and let the fresh epoch plane shield the
		// rebuilt collectives from the dead epoch's stale frames.
		cw := *chaosW
		for i := 0; i < n; i++ {
			cw.Readmit(i)
		}
		for i := range transports {
			transports[i] = cw.Rank(i)
		}
		crashedFn = cw.Crashed
	default:
		w, err := comm.NewWorld(n)
		if err != nil {
			out.err = err
			return out
		}
		defer w.Close()
		for i := range transports {
			transports[i] = w.Rank(i)
		}
	}

	var mu sync.Mutex
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = elasticRank(spec, transports[i], shared, out, &mu)
		}(i)
	}
	wg.Wait()
	out.err = errors.Join(errs...)
	out.crashed = crashedFn()
	return out
}

// elasticRank is runRank's elastic counterpart: timeout, loop, Leave on
// failure so the cascade stays clean.
func elasticRank(spec epochSpec, raw comm.Transport, shared *strategies.Shared, out *epochOutcome, mu *sync.Mutex) error {
	if spec.job.RecvTimeout > 0 {
		if ts, ok := raw.(comm.TimeoutSetter); ok {
			ts.SetRecvTimeout(spec.job.RecvTimeout)
		}
	}
	err := elasticRankLoop(spec, raw, shared, out, mu)
	if err != nil {
		if l, ok := raw.(comm.Leaver); ok {
			l.Leave(err)
		}
	}
	return err
}

func elasticRankLoop(spec epochSpec, raw comm.Transport, shared *strategies.Shared, out *epochOutcome, mu *sync.Mutex) error {
	rec := metrics.NewOpRecorder()
	cm := collective.NewCommunicator(raw,
		collective.WithChunkBytes(chunkBytesOf(spec.job.ChunkBytes)),
		collective.WithObserver(rec),
		collective.WithEpoch(spec.epoch))
	defer func() {
		mu.Lock()
		out.res.Comm = out.res.Comm.Add(rec.Total())
		out.res.addCommPerOp(rec.PerOp())
		mu.Unlock()
	}()

	// Per-rank restore. EmbRace ranks slice exactly their new columns out
	// of the snapshot (checkpoint.ColumnShard follows the same ColumnWise
	// tiling the remap plan describes); replicated-table strategies restore
	// the full table. Trunk parameters warm-start everywhere.
	cfg := spec.job.Model
	var opts []strategies.WorkerOption
	if spec.base != nil {
		cfg.InitTrunk = trunkParamsOf(spec.base)
		if spec.job.Strategy == strategies.EmbRace {
			shard, err := spec.base.ColumnShard("emb", cm.Size(), cm.Rank())
			if err != nil {
				return fmt.Errorf("rank %d: restoring remapped shard: %w", cm.Rank(), err)
			}
			opts = append(opts, strategies.WithEmbShard(shard))
		} else {
			cfg.InitEmbedding = spec.base.Params["emb"]
		}
	}
	w, err := strategies.NewWorker(spec.job.Strategy, cm, cfg, shared, opts...)
	if err != nil {
		return err
	}

	// The world barrier: no rank's step traffic flows until every rank has
	// stood up its restored worker in the new epoch plane.
	if err := cm.Barrier(opElasticBarrier, 0); err != nil {
		return attribute(cm.Rank(), -1, "world barrier", err)
	}
	if cm.Rank() == 0 {
		mu.Lock()
		out.readyAt = spec.clock()
		mu.Unlock()
	}

	gen, err := data.NewGenerator(spec.job.Data, spec.job.DataSeed+int64(cm.Rank()))
	if err != nil {
		return err
	}
	loader := data.NewLoader(gen)
	for skip := 0; skip < spec.job.SkipBatches+spec.stepBase; skip++ {
		loader.Next()
	}

	steps := spec.job.Steps - spec.stepBase
	for s := 0; s < steps; s++ {
		gStep := spec.stepBase + s // attribution in global step numbers
		batch := loader.Next()
		next := loader.Peek()
		windows, targets := WindowsTargets(batch, spec.job.Window)
		stats, err := w.Step(s, windows, targets, next.Tokens())
		if err != nil {
			return attribute(cm.Rank(), gStep, "train step", err)
		}
		all, err := collective.GatherVia(cm, strategies.OpStats, s, 0, stats)
		if err != nil {
			return attribute(cm.Rank(), gStep, "stats gather", err)
		}
		if cm.Rank() == 0 {
			var sum float64
			correct, count := 0, 0
			for _, st := range all {
				sum += st.Loss
				correct += st.Correct
				count += st.Count
			}
			mu.Lock()
			out.res.Losses[s] = sum / float64(len(all))
			if count > 0 {
				out.res.Accuracies[s] = float64(correct) / float64(count)
			}
			mu.Unlock()
		}
		mu.Lock()
		out.res.TokensTrained += batch.NonPad
		mu.Unlock()

		// The stepped ctl handshake: rank 0 decides the boundary's fate
		// from shared counters and sends the verdict point-to-point;
		// followers obey what they receive — the driver/follower shape of
		// serve's reload protocol, one decision per step boundary.
		done := s + 1
		decision := ctlContinue
		if cm.Rank() == 0 {
			decision = boundaryDecision(done, steps, spec.ckptEvery, spec.stopAfter)
			for p := 1; p < cm.Size(); p++ {
				if err := cm.Send(opElasticCtl, s, p, decision); err != nil {
					return attribute(cm.Rank(), gStep, "ctl handshake", err)
				}
			}
		} else {
			v, err := cm.Recv(opElasticCtl, s, 0)
			if err != nil {
				return attribute(cm.Rank(), gStep, "ctl handshake", err)
			}
			d, ok := v.(int)
			if !ok {
				return fmt.Errorf("rank %d: ctl payload %T, want int", cm.Rank(), v)
			}
			decision = d
		}
		if decision == ctlContinue {
			continue
		}
		// Snapshot: FullEmbedding is collective (EmbRace gathers shards;
		// it also harvests the in-flight delayed exchange first, which the
		// next step would have applied before any other mutation anyway —
		// the reason snapshot boundaries stay bit-exact under Sched2D).
		emb, err := w.FullEmbedding()
		if err != nil {
			return attribute(cm.Rank(), gStep, "checkpoint gather", err)
		}
		if cm.Rank() == 0 {
			ckpt := snapshotCheckpoint(spec.job.SkipBatches+spec.stepBase+done, emb, w)
			mu.Lock()
			out.snaps = append(out.snaps, snapshotRec{steps: done, ckpt: ckpt})
			if decision == ctlStop {
				out.stopped = true
			}
			mu.Unlock()
		}
		if decision == ctlStop {
			return nil
		}
	}

	emb, err := w.FullEmbedding()
	if err != nil {
		return attribute(cm.Rank(), -1, "final embedding", err)
	}
	if cm.Rank() == 0 {
		mu.Lock()
		out.res.Embedding = emb
		out.res.Trunk = w.Trunk()
		mu.Unlock()
	}
	return nil
}

// boundaryDecision is rank 0's per-boundary verdict: stop (to readmit)
// beats checkpoint, and the epoch's final boundary always continues — the
// natural end of the loop gathers final state instead.
func boundaryDecision(done, steps, every, stopAfter int) int {
	if done >= steps {
		return ctlContinue
	}
	if stopAfter > 0 && done >= stopAfter {
		return ctlStop
	}
	if every > 0 && done%every == 0 {
		return ctlCheckpoint
	}
	return ctlContinue
}

// snapshotCheckpoint seals one boundary's state. Everything is cloned: the
// epoch keeps training on the live tensors the moment the boundary passes.
func snapshotCheckpoint(step int, emb *tensor.Dense, w strategies.Worker) *checkpoint.Checkpoint {
	params := map[string]*tensor.Dense{"emb": emb.Clone()}
	for _, p := range w.Trunk().Params() {
		params[p.Name] = p.Tensor.Clone()
	}
	return &checkpoint.Checkpoint{Step: step, Params: params}
}

// trunkParamsOf extracts the trunk warm-start map from a snapshot.
func trunkParamsOf(c *checkpoint.Checkpoint) map[string]*tensor.Dense {
	out := make(map[string]*tensor.Dense, len(c.Params))
	for name, p := range c.Params {
		if name != "emb" {
			out[name] = p
		}
	}
	return out
}
