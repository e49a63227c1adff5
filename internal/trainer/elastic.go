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
//	  stop-to-rejoin ◀── a step boundary every rank computes locally
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
	"fmt"
	"time"

	"embrace/internal/checkpoint"
	"embrace/internal/collective"
	"embrace/internal/comm"
	"embrace/internal/nn"
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
	// Rejoin readmits recovered ranks: after a shrink, the shrunk world
	// stops at a step boundary (RejoinAfter steps in) and the next epoch
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

const (
	// DefaultCheckpointEvery is the snapshot cadence when CheckpointEvery
	// is zero.
	DefaultCheckpointEvery = 5
	// DefaultMaxRecoveries bounds how many faults the supervisor absorbs
	// before giving up and returning the partial result with the error.
	DefaultMaxRecoveries = 2
)

// Epoch outcomes recorded in EpochInfo.End.
const (
	// EpochCompleted: the epoch trained to the job's last step.
	EpochCompleted = "completed"
	// EpochFault: the epoch died on an attributed fault; the supervisor
	// rolled back to the epoch's last snapshot and shrunk the world.
	EpochFault = "fault"
	// EpochRejoin: the epoch stopped at a step boundary so the next epoch
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
// tags. Retarget it at another collective with CrashAt.
func CrashPlan(seed int64, victim, step int) comm.FaultPlan {
	crash := comm.Rule(comm.FaultCrash, 1)
	crash.From = victim
	crash.Match = CrashAt(strategies.OpEmbData, step)
	plan := comm.MaskableChaosPlan(seed)
	plan.Rules = append([]comm.FaultRule{crash}, plan.Rules...)
	return plan
}

// CrashAt matches the epoch-0 sends of op's collective at step.
func CrashAt(op string, step int) func(comm.FaultPoint) bool {
	tag := collective.TagOf(op)
	return func(pt comm.FaultPoint) bool { return pt.Tag == tag && pt.Step == step }
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
	clock := job.Clock
	if clock == nil {
		clock = trace.NewWallClock()
	}

	res := &ElasticResult{Result: *newResult(job.Steps)}

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
	var transitionAt time.Duration  // clock() when the previous epoch ended
	var moves []partition.ShardMove // the remap entering the next epoch

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
		out := runEpoch(spec, spec.strategyRank(), &chaosW)

		res.Comm = res.Comm.Add(out.res.Comm)
		res.addCommPerOp(out.res.CommPerOp)
		res.TokensTrained += out.res.TokensTrained

		info := EpochInfo{Epoch: epoch, Workers: workers, StartStep: done}
		if epoch > 0 {
			info.RecoverySeconds = (out.readyAt - transitionAt).Seconds()
			info.Moves = moves
		}

		// The steps the epoch locks in: every one when it completed, else
		// those up to its last snapshot, which the next epoch restores.
		completed := out.err == nil && !out.stopped
		keep := len(out.res.Losses)
		if !completed {
			keep = 0
			if n := len(out.snaps); n > 0 {
				keep, base = out.snaps[n-1].steps, out.snaps[n-1].ckpt
			}
		}
		copy(res.Losses[done:], out.res.Losses[:keep])
		copy(res.Accuracies[done:], out.res.Accuracies[:keep])
		done += keep
		info.EndStep = done

		next := job.Workers
		switch {
		case completed:
			res.Embedding = out.res.Embedding
			res.Trunk = out.res.Trunk
			info.End = EpochCompleted
			res.Epochs = append(res.Epochs, info)
			return res, nil

		case out.err == nil: // stopped at a step boundary to readmit
			info.End = EpochRejoin
			res.Epochs = append(res.Epochs, info)
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
			info.End = EpochFault
			info.Crashed = out.crashed
			info.Fault = pickFault(faults, out.crashed)
			res.Epochs = append(res.Epochs, info)
			if res.Recoveries > DefaultMaxRecoveries {
				return res, fmt.Errorf("trainer: elastic recovery budget (%d) exhausted: %w", DefaultMaxRecoveries, out.err)
			}
			// A fault without an identified crash (a timeout, a bare
			// WrapChaos partition) retries at the same size — the world
			// rebuild itself clears wedged transport state.
			next = workers - len(out.crashed)
			if next < 1 {
				return res, fmt.Errorf("trainer: every rank crashed: %w", out.err)
			}
			if err := job.Model.Validate(next); err != nil {
				return res, fmt.Errorf("trainer: cannot shrink world %d -> %d: %w", workers, next, err)
			}
			if job.Rejoin && next < job.Workers {
				stopAfter = job.RejoinAfter
				if stopAfter <= 0 {
					stopAfter = ckptEvery
				}
			}
		}
		moves = remapFor(job.Job, workers, next)
		transitionAt = clock()
		workers = next
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

// snapshotRec is one in-memory checkpoint taken at an epoch step boundary.
type snapshotRec struct {
	steps int // epoch-local steps the snapshot covers
	ckpt  *checkpoint.Checkpoint
}

// snapshotCheckpoint seals one boundary's state. Everything is cloned: the
// epoch keeps training on the live tensors the moment the boundary passes.
func snapshotCheckpoint(step int, emb *tensor.Dense, trunk *nn.Trunk) *checkpoint.Checkpoint {
	params := map[string]*tensor.Dense{"emb": emb.Clone()}
	for _, p := range trunk.Params() {
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
