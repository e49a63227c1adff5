package trainer

import (
	"errors"
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

// The attribution matrix: a crash targeted at each phase of the step loop
// must surface as a FaultError naming the crashed rank, the exact step, and
// the exact phase — the coordinates the elastic supervisor steers by.
// CrashAt pins the crash to one (op tag, frame step) point, so the phase hit
// is deterministic, not scheduling-dependent.
func TestFaultAttributionMatrix(t *testing.T) {
	const victim = 3
	cases := []struct {
		name      string
		op        string
		tagStep   int // step the targeted frames carry
		wantStep  int // FaultError.Step (-1 outside the step loop)
		wantPhase string
	}{
		// OpTokens opens every training step's exchange.
		{"train step", strategies.OpTokens, 2, 2, "train step"},
		// OpStats is sent by non-root ranks in the gather after the step.
		{"stats gather", strategies.OpStats, 2, 2, "stats gather"},
		// OpGatherEmb runs once, after the loop at frame step 0; the
		// FaultError reports step -1.
		{"final embedding", strategies.OpGatherEmb, 0, -1, "final embedding"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			job := testJob(strategies.EmbRace, 4)
			job.RecvTimeout = 5 * time.Second
			plan := CrashPlan(7, victim, tc.tagStep)
			// Retarget the prepended crash rule at the phase's op.
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
