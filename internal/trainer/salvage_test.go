package trainer

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"embrace/internal/comm"
	"embrace/internal/strategies"
)

// runWithGuard runs a job under a hang deadline: fault-path tests must
// resolve via the Leave cascade or RecvTimeout, never block the suite.
func runWithGuard(t *testing.T, job Job) (*Result, error) {
	t.Helper()
	type out struct {
		res *Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := Run(job)
		ch <- out{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(60 * time.Second):
		t.Fatal("job hung")
		return nil, nil
	}
}

// The salvage regression: a faulted Run must return the partial Result
// ALONGSIDE the error — every loss and accuracy recorded before the fault
// step, bit-identical to a fault-free run's prefix — not nil. This is the
// contract the elastic supervisor's rollback is built on; it regressed once
// (Run returned nil, runErr) and the recorded progress was discarded.
func TestFaultedRunReturnsPartialResult(t *testing.T) {
	const faultStep = 3
	job := testJob(strategies.EmbRace, 4)
	job.Steps = 6
	job.RecvTimeout = 5 * time.Second

	ref, err := Run(job)
	if err != nil {
		t.Fatalf("fault-free: %v", err)
	}

	plan := CrashPlan(11, 3, faultStep)
	job.Chaos = &plan
	res, err := runWithGuard(t, job)
	if err == nil {
		t.Fatal("job succeeded despite a crashed rank")
	}
	if res == nil {
		t.Fatal("faulted Run returned nil Result; recorded progress discarded")
	}
	if len(FaultErrors(err)) == 0 {
		t.Fatalf("no attributed FaultError in: %v", err)
	}
	for s := 0; s < faultStep; s++ {
		if res.Losses[s] != ref.Losses[s] {
			t.Fatalf("salvaged loss[%d] = %v, fault-free %v", s, res.Losses[s], ref.Losses[s])
		}
		if res.Accuracies[s] != ref.Accuracies[s] {
			t.Fatalf("salvaged accuracy[%d] = %v, fault-free %v", s, res.Accuracies[s], ref.Accuracies[s])
		}
	}
	for s := faultStep; s < job.Steps; s++ {
		if res.Losses[s] != 0 {
			t.Fatalf("loss[%d] = %v past the fault step, want zero", s, res.Losses[s])
		}
	}
	if res.Comm.Messages == 0 {
		t.Fatal("partial Result lost its communication counters")
	}
}

// The attribution matrix: a fault targeted at each phase of the step loop
// must surface as a FaultError naming the crashed rank, the exact step, and
// the exact phase — the coordinates the elastic supervisor steers by.
// CrashAt pins the fault to one (op tag, frame step) point, so the phase hit
// is deterministic, not scheduling-dependent.
func TestFaultAttributionMatrix(t *testing.T) {
	const victim = 3
	cases := []struct {
		name      string
		kind      comm.FaultKind
		op        string
		tagStep   int // step the targeted frames carry
		wantStep  int // FaultError.Step (-1 outside the step loop)
		wantPhase string
	}{
		// OpTokens opens every training step's exchange.
		{"train step", comm.FaultCrash, strategies.OpTokens, 2, 2, "train step"},
		// OpStats is sent by non-root ranks in the gather after the step.
		{"stats gather", comm.FaultCrash, strategies.OpStats, 2, 2, "stats gather"},
		// OpTrunk runs on the dense lane, which outlives its step; a fault
		// in it is reported at the step whose ring failed. A crash would
		// race the lane's first send against the victim's step goroutine,
		// whose next send could then fail first, in step 2 or in step 3's
		// token gather. Cutting only the victim's trunk stream leaves every
		// step goroutine untouched, so all ranks reach step 3's dense join
		// and the victim's fails there with the lane's error.
		{"trunk ring", comm.FaultPartition, strategies.OpTrunk, 2, 2, "train step"},
		// OpGatherEmb runs once, after the loop at frame step 0; the
		// FaultError reports step -1.
		{"final embedding", comm.FaultCrash, strategies.OpGatherEmb, 0, -1, "final embedding"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			job := testJob(strategies.EmbRace, 4)
			job.RecvTimeout = 5 * time.Second
			plan := CrashPlan(7, victim, tc.tagStep)
			// Retarget the prepended crash rule at the phase's op.
			plan.Rules[0].Kind = tc.kind
			plan.Rules[0].Match = CrashAt(tc.op, tc.tagStep)

			job.Chaos = &plan
			_, err := runWithGuard(t, job)
			if err == nil {
				t.Fatal("job succeeded despite a crashed rank")
			}
			if !errors.Is(err, comm.ErrPeerDown) {
				t.Fatalf("err = %v, want ErrPeerDown in the chain", err)
			}
			var got *FaultError
			for _, fe := range FaultErrors(err) {
				if fe.Rank == victim {
					got = fe
					break
				}
			}
			if got == nil {
				t.Fatalf("no FaultError attributed to rank %d in: %v", victim, err)
			}
			if got.Step != tc.wantStep {
				t.Fatalf("FaultError.Step = %d, want %d", got.Step, tc.wantStep)
			}
			if got.Phase != tc.wantPhase {
				t.Fatalf("FaultError.Phase = %q, want %q", got.Phase, tc.wantPhase)
			}
		})
	}
}

// A failed job leaves no background lane running: a rank drains its worker
// when it fails, whether the fault hit the lane itself or the step loop while
// a lane was in flight, so the goroutine count returns to its baseline. The
// plan injects the crash alone, so no chaos delivery is left in flight either.
// Only the Leave cascade may end the job, including a rank whose lane still
// waits on a live neighbour when it leaves: the test asserts ErrPeerDown, no
// receive timeout, and a failure well inside any receive deadline.
func TestFaultedRunLeavesNoLaneRunning(t *testing.T) {
	for _, op := range []string{strategies.OpTrunk, strategies.OpStats} {
		for _, overTCP := range []bool{false, true} {
			name := op + "/chaos"
			if overTCP {
				name = op + "/tcp"
			}
			t.Run(name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				slow := time.NewTimer(4 * time.Second)
				defer slow.Stop()
				var err error
				if overTCP {
					job := testJob(strategies.EmbRace, 3)
					job.Model.EmbDim = 9
					err = runWorkersOverTCP(t, job, crashPlan(2, op))
				} else {
					job := testJob(strategies.EmbRace, 4)
					job.RecvTimeout = 5 * time.Second
					plan := crashPlan(3, op)
					job.Chaos = &plan
					_, err = runWithGuard(t, job)
				}
				if err == nil {
					t.Fatal("job succeeded despite a crashed rank")
				}
				// Only the Leave cascade may end the job: a receive that
				// missed its wake-up would end at a receive deadline instead.
				if !errors.Is(err, comm.ErrPeerDown) || errors.Is(err, comm.ErrTimeout) {
					t.Fatalf("err = %v, want ErrPeerDown and no receive timeout", err)
				}
				select {
				case <-slow.C:
					t.Fatal("job took over 4s to fail; the Leave cascade should end it at once")
				default:
				}
				for polls := 0; runtime.NumGoroutine() > before; polls++ {
					if polls == 500 {
						t.Fatalf("%d goroutines before the job, %d after", before, runtime.NumGoroutine())
					}
					time.Sleep(10 * time.Millisecond)
				}
			})
		}
	}
}

// crashPlan crashes victim at its first send of op's collective at step 2,
// and injects nothing else.
func crashPlan(victim int, op string) comm.FaultPlan {
	crash := comm.Rule(comm.FaultCrash, 1)
	crash.From = victim
	crash.Match = CrashAt(op, 2)
	return comm.FaultPlan{Seed: 5, Rules: []comm.FaultRule{crash}}
}

// runWorkersOverTCP runs every rank of job through RunWorker over a loopback
// TCP world, each rank's transport wrapped with plan, under a hang deadline,
// and joins the ranks' errors.
func runWorkersOverTCP(t *testing.T, job Job, plan comm.FaultPlan) error {
	t.Helper()
	w, err := comm.NewTCPWorld(job.Workers)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	errs := make([]error, job.Workers)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for i := range job.Workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = RunWorker(job, comm.WrapChaos(w.Rank(i), plan))
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
		return errors.Join(errs...)
	case <-time.After(60 * time.Second):
		t.Fatal("job hung")
		return nil
	}
}

// FaultErrors must find every attributed fault in a joined error tree and
// none in trees without one.
func TestFaultErrorsWalk(t *testing.T) {
	fe1 := &FaultError{Rank: 1, Step: 2, Phase: "train step", Err: comm.ErrPeerDown}
	fe2 := &FaultError{Rank: 3, Step: -1, Phase: "final embedding", Err: comm.ErrTimeout}
	tree := errors.Join(
		errors.Join(fe1, errors.New("plain")),
		fe2,
	)
	got := FaultErrors(tree)
	if len(got) != 2 || got[0] != fe1 || got[1] != fe2 {
		t.Fatalf("FaultErrors = %v, want [fe1 fe2]", got)
	}
	if n := len(FaultErrors(errors.New("no faults here"))); n != 0 {
		t.Fatalf("found %d faults in a plain error", n)
	}
	if n := len(FaultErrors(nil)); n != 0 {
		t.Fatalf("found %d faults in nil", n)
	}
}
