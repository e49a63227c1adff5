package trainer

import (
	"errors"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"embrace/internal/strategies"
	"embrace/internal/tensor"
)

// elasticSeeds returns the chaos seed sweep, offset by EMBRACE_CHAOS_SEED so
// CI can run disjoint ranges without editing the test.
func elasticSeeds(n int) []int64 {
	base := int64(1)
	if s := os.Getenv("EMBRACE_CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			base = v
		}
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}

// tickClock is a deterministic, race-safe clock: each call advances one
// millisecond. Injected so the elastic supervisor's recovery-latency
// accounting is testable and the trainer package stays wall-clock-free.
func tickClock() func() time.Duration {
	var tick atomic.Int64
	return func() time.Duration {
		return time.Duration(tick.Add(1)) * time.Millisecond
	}
}

// elasticJob is the canonical crash–shrink–rejoin scenario: W workers,
// 9 steps, snapshot every 3, rank W-1 crashes opening step 4, the shrunk
// world trains 2 steps then readmits. EmbDim must divide by both W and W-1.
func elasticJob(workers, embDim int) ElasticJob {
	job := testJob(strategies.EmbRace, workers)
	job.Steps = 9
	job.Model.EmbDim = embDim
	job.RecvTimeout = 10 * time.Second
	return ElasticJob{
		Job:             job,
		CheckpointEvery: 3,
		Rejoin:          true,
		RejoinAfter:     2,
		Clock:           tickClock(),
	}
}

// runElasticWithGuard bounds a whole supervised run: recovery must be
// driven by the Leave cascade and RecvTimeout, never by test patience.
func runElasticWithGuard(t *testing.T, job ElasticJob) (*ElasticResult, error) {
	t.Helper()
	type out struct {
		res *ElasticResult
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := RunElastic(job)
		ch <- out{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(120 * time.Second):
		t.Fatal("elastic run hung")
		return nil, nil
	}
}

// stitchedReference reproduces an elastic run's trajectory with plain,
// fault-free Runs: one per epoch segment, each at that epoch's world size,
// warm-started from the PREVIOUS segment's own final parameters (never from
// the elastic run's state) and fast-forwarded to the segment's start batch.
// Agreement therefore proves the elastic run's losses and final parameters
// are exactly those of uninterrupted training over the same effective batch
// schedule.
func stitchedReference(t *testing.T, job ElasticJob, epochs []EpochInfo) *Result {
	t.Helper()
	ref := &Result{
		Losses:     make([]float64, job.Steps),
		Accuracies: make([]float64, job.Steps),
	}
	var emb *tensor.Dense
	var trunk map[string]*tensor.Dense
	for _, ep := range epochs {
		if ep.EndStep == ep.StartStep {
			continue // epoch rolled back entirely
		}
		seg := job.Job
		seg.Workers = ep.Workers
		seg.Steps = ep.EndStep - ep.StartStep
		seg.SkipBatches = job.SkipBatches + ep.StartStep
		seg.Chaos = nil
		seg.Model.InitEmbedding = emb
		seg.Model.InitTrunk = trunk
		res, err := Run(seg)
		if err != nil {
			t.Fatalf("reference segment [%d,%d) at %d workers: %v", ep.StartStep, ep.EndStep, ep.Workers, err)
		}
		copy(ref.Losses[ep.StartStep:ep.EndStep], res.Losses)
		copy(ref.Accuracies[ep.StartStep:ep.EndStep], res.Accuracies)
		emb = res.Embedding
		trunk = make(map[string]*tensor.Dense)
		for _, p := range res.Trunk.Params() {
			trunk[p.Name] = p.Tensor
		}
		ref.Embedding = res.Embedding
		ref.Trunk = res.Trunk
	}
	return ref
}

// The tentpole proof: a seeded crash–shrink–rejoin run converges to the
// SAME loss trajectory — bit-identical on the lossless path — as
// uninterrupted training of the equal effective batch schedule, across
// world sizes and chaos seeds. Run with -race.
func TestElasticCrashShrinkRejoinBitIdentical(t *testing.T) {
	cases := []struct{ workers, embDim int }{
		{3, 6},  // EmbDim divides 3 and 2
		{4, 12}, // divides 4 and 3
		{8, 56}, // divides 8 and 7
	}
	for _, tc := range cases {
		for _, seed := range elasticSeeds(3) {
			job := elasticJob(tc.workers, tc.embDim)
			victim := tc.workers - 1
			plan := CrashPlan(seed, victim, 4)
			job.Chaos = &plan

			res, err := runElasticWithGuard(t, job)
			if err != nil {
				t.Fatalf("W=%d seed %d: %v", tc.workers, seed, err)
			}
			label := "W=" + strconv.Itoa(tc.workers) + " seed " + strconv.FormatInt(seed, 10)

			if res.Recoveries != 1 {
				t.Fatalf("%s: recoveries = %d, want 1", label, res.Recoveries)
			}
			if len(res.Epochs) != 3 {
				t.Fatalf("%s: %d epochs, want 3: %+v", label, len(res.Epochs), res.Epochs)
			}
			e0, e1, e2 := res.Epochs[0], res.Epochs[1], res.Epochs[2]
			if e0.End != EpochFault || e0.Workers != tc.workers || e0.StartStep != 0 || e0.EndStep != 3 {
				t.Fatalf("%s: epoch 0 = %+v, want fault [0,3) at %d workers", label, e0, tc.workers)
			}
			if len(e0.Crashed) != 1 || e0.Crashed[0] != victim {
				t.Fatalf("%s: crashed = %v, want [%d]", label, e0.Crashed, victim)
			}
			if e0.Fault == nil || e0.Fault.Rank != victim || e0.Fault.Step != 4 || e0.Fault.Phase != "train step" {
				t.Fatalf("%s: fault = %+v, want rank %d step 4 train step", label, e0.Fault, victim)
			}
			if e1.End != EpochRejoin || e1.Workers != tc.workers-1 || e1.StartStep != 3 || e1.EndStep != 5 {
				t.Fatalf("%s: epoch 1 = %+v, want rejoin [3,5) at %d workers", label, e1, tc.workers-1)
			}
			if len(e1.Moves) == 0 {
				t.Fatalf("%s: shrink epoch recorded no shard moves", label)
			}
			if e1.RecoverySeconds <= 0 {
				t.Fatalf("%s: shrink recovery latency %v, want > 0", label, e1.RecoverySeconds)
			}
			if e2.End != EpochCompleted || e2.Workers != tc.workers || e2.StartStep != 5 || e2.EndStep != 9 {
				t.Fatalf("%s: epoch 2 = %+v, want completed [5,9) at %d workers", label, e2, tc.workers)
			}
			if len(e2.Moves) == 0 || e2.RecoverySeconds <= 0 {
				t.Fatalf("%s: rejoin epoch moves/latency = %v/%v, want recorded", label, e2.Moves, e2.RecoverySeconds)
			}

			ref := stitchedReference(t, job, res.Epochs)
			sameResult(t, label, ref, &res.Result)
		}
	}
}

// A crash before the first snapshot rolls the whole epoch back: the shrunk
// world restarts from seed initialization — identical to a fresh fault-free
// run at the smaller size — and still completes and rejoins.
func TestElasticCrashBeforeFirstCheckpoint(t *testing.T) {
	job := elasticJob(4, 12)
	plan := CrashPlan(elasticSeeds(1)[0], 3, 1)
	job.Chaos = &plan

	res, err := runElasticWithGuard(t, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[0].EndStep != 0 {
		t.Fatalf("epoch 0 kept %d steps despite no snapshot", res.Epochs[0].EndStep)
	}
	ref := stitchedReference(t, job, res.Epochs)
	sameResult(t, "no-checkpoint crash", ref, &res.Result)
}

// The replicated-table strategies shrink too — no shard remap, just a
// full-table restore on the survivors.
func TestElasticShrinkAllReduceStrategy(t *testing.T) {
	job := elasticJob(4, 12)
	job.Strategy = strategies.HorovodAllReduce
	plan := CrashPlan(elasticSeeds(1)[0], 3, 4)
	// AllReduce never touches the token-routing op; aim the crash at the
	// embedding-gradient AllReduce of the same step instead.
	plan.Rules[0].Match = CrashAt(strategies.OpEmbGrad, 4)
	job.Chaos = &plan

	res, err := runElasticWithGuard(t, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs[1].Moves) != 0 {
		t.Fatalf("replicated-table shrink planned moves: %v", res.Epochs[1].Moves)
	}
	ref := stitchedReference(t, job, res.Epochs)
	sameResult(t, "allreduce shrink", ref, &res.Result)
}

// The parameter-server baselines shrink like the replicated-table ones: the
// survivors restore the full table, and their server shards re-form over the
// smaller world (BytePS's ring chunks, Parallax's row owners). The crash hits
// an exchange only the baseline issues.
func TestElasticShrinkParameterServerStrategies(t *testing.T) {
	for _, tc := range []struct {
		name strategies.Name
		op   string
	}{
		{strategies.BytePS, strategies.OpPSDense},
		{strategies.Parallax, strategies.OpPSPullRows},
	} {
		job := elasticJob(4, 12)
		job.Strategy = tc.name
		job.Model.Optimizer = strategies.OptAdam
		job.Model.LR = 0.01
		plan := CrashPlan(elasticSeeds(1)[0], 3, 4)
		plan.Rules[0].Match = CrashAt(tc.op, 4)
		job.Chaos = &plan

		res, err := runElasticWithGuard(t, job)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Recoveries != 1 || len(res.Epochs) != 3 || res.Epochs[1].Workers != 3 {
			t.Fatalf("%s: recoveries %d, epochs %+v; want one shrink to 3 and a rejoin", tc.name, res.Recoveries, res.Epochs)
		}
		if c := res.Epochs[0].Crashed; len(c) != 1 || c[0] != 3 {
			t.Fatalf("%s: crashed = %v, want [3]", tc.name, c)
		}
		ref := stitchedReference(t, job, res.Epochs)
		sameResult(t, string(tc.name)+" shrink", ref, &res.Result)
	}
}

// Without Rejoin the run finishes at the shrunk size: two epochs, the
// second completing on W-1 ranks.
func TestElasticShrinkWithoutRejoin(t *testing.T) {
	job := elasticJob(4, 12)
	job.Rejoin = false
	plan := CrashPlan(elasticSeeds(1)[0], 3, 4)
	job.Chaos = &plan

	res, err := runElasticWithGuard(t, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("%d epochs, want 2: %+v", len(res.Epochs), res.Epochs)
	}
	if res.Epochs[1].End != EpochCompleted || res.Epochs[1].Workers != 3 {
		t.Fatalf("final epoch = %+v, want completed at 3 workers", res.Epochs[1])
	}
	ref := stitchedReference(t, job, res.Epochs)
	sameResult(t, "no-rejoin shrink", ref, &res.Result)
}

// A fault the supervisor cannot recover from — the shrunk world size does
// not divide the embedding — surfaces the error WITH the salvaged prefix,
// never a nil result.
func TestElasticUnshrinkableWorldReturnsSalvage(t *testing.T) {
	job := elasticJob(4, 8) // 8 % 3 != 0: shrinking to 3 ranks must fail
	plan := CrashPlan(elasticSeeds(1)[0], 3, 4)
	job.Chaos = &plan

	res, err := runElasticWithGuard(t, job)
	if err == nil {
		t.Fatal("expected an error when the world cannot shrink")
	}
	if res == nil {
		t.Fatal("partial result discarded on unshrinkable world")
	}
	if len(res.Epochs) != 1 || res.Epochs[0].End != EpochFault {
		t.Fatalf("epochs = %+v, want one faulted epoch", res.Epochs)
	}
	if res.Epochs[0].EndStep != 3 {
		t.Fatalf("salvage kept %d steps, want 3", res.Epochs[0].EndStep)
	}
	for s := 0; s < res.Epochs[0].EndStep; s++ {
		if res.Losses[s] == 0 {
			t.Fatalf("salvaged loss[%d] lost", s)
		}
	}
}

// Elastic configuration errors are rejected up front.
func TestElasticValidation(t *testing.T) {
	base := elasticJob(4, 12)
	cases := []struct {
		name   string
		mutate func(*ElasticJob)
	}{
		{"over tcp", func(j *ElasticJob) { j.OverTCP = true }},
		{"trace", func(j *ElasticJob) { j.Trace = true }},
		{"bad base job", func(j *ElasticJob) { j.Workers = 0 }},
	}
	for _, tc := range cases {
		job := base
		tc.mutate(&job)
		if _, err := RunElastic(job); err == nil {
			t.Fatalf("%s: expected validation error", tc.name)
		}
	}
}

// A fault-free elastic run is just a plain run with snapshots: one
// completed epoch, zero recoveries, bit-identical to Run.
func TestElasticFaultFreeMatchesPlainRun(t *testing.T) {
	job := elasticJob(4, 12)
	ref, err := Run(job.Job)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runElasticWithGuard(t, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 0 || len(res.Epochs) != 1 || res.Epochs[0].End != EpochCompleted {
		t.Fatalf("fault-free elastic run reported %d recoveries, epochs %+v", res.Recoveries, res.Epochs)
	}
	sameResult(t, "fault-free elastic", ref, &res.Result)
	if errors.Is(err, nil) && res.Epochs[0].EndStep != job.Steps {
		t.Fatalf("epoch covers [%d,%d), want full run", res.Epochs[0].StartStep, res.Epochs[0].EndStep)
	}
}
