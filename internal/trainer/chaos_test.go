package trainer

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"embrace/internal/comm"
	"embrace/internal/strategies"
)

// sameResult asserts two runs are bit-identical: loss curve, accuracy curve,
// final embedding table and final trunk parameters.
func sameResult(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	for i := range ref.Losses {
		if ref.Losses[i] != got.Losses[i] {
			t.Fatalf("%s: loss[%d] = %v, fault-free %v", label, i, got.Losses[i], ref.Losses[i])
		}
		if ref.Accuracies[i] != got.Accuracies[i] {
			t.Fatalf("%s: accuracy[%d] = %v, fault-free %v", label, i, got.Accuracies[i], ref.Accuracies[i])
		}
	}
	if !ref.Embedding.AllClose(got.Embedding, 0) {
		t.Fatalf("%s: final embedding differs by %v", label, ref.Embedding.MaxAbsDiff(got.Embedding))
	}
	refP, gotP := ref.Trunk.Params(), got.Trunk.Params()
	for i := range refP {
		if !refP[i].Tensor.AllClose(gotP[i].Tensor, 0) {
			t.Fatalf("%s: trunk param %s differs", label, refP[i].Name)
		}
	}
}

// An end-to-end training job under a maskable fault plan must converge to
// exactly the fault-free run: same losses at every step, same final
// parameters to the last bit. This is the paper's synchronous-training
// contract surviving a misbehaving fabric.
func TestTrainingUnderMaskableChaosIsBitIdentical(t *testing.T) {
	for _, name := range []strategies.Name{strategies.EmbRace, strategies.HorovodAllReduce, strategies.BytePS, strategies.Parallax} {
		job := testJob(name, 4)
		ref, err := Run(job)
		if err != nil {
			t.Fatalf("%s fault-free: %v", name, err)
		}
		for _, seed := range elasticSeeds(3) {
			chaosJob := job
			plan := comm.MaskableChaosPlan(seed)
			chaosJob.Chaos = &plan
			res, err := Run(chaosJob)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			sameResult(t, fmt.Sprintf("%s seed %d", name, seed), ref, res)
		}
	}
}

// Masked faults must show up in the aggregated communication stats — the
// run's own record that it trained through injected faults.
func TestTrainingRecordsMaskedFaults(t *testing.T) {
	job := testJob(strategies.EmbRace, 4)
	plan := comm.FaultPlan{Seed: 9, Rules: []comm.FaultRule{comm.Rule(comm.FaultDuplicate, 1)}}
	job.Chaos = &plan
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.FaultsMasked == 0 {
		t.Fatal("every message duplicated, yet FaultsMasked == 0")
	}
	if res.Comm.FaultsFatal != 0 {
		t.Fatalf("maskable plan produced %d fatal faults", res.Comm.FaultsFatal)
	}
}

// A crashed rank is not maskable: the job must fail fast — within a deadline,
// not a hang — with an error that names the crashed rank and unwraps to
// comm.ErrPeerDown, and at least one rank must report it as an attributed
// FaultError.
func TestTrainingRankCrashIsAttributed(t *testing.T) {
	job := testJob(strategies.EmbRace, 4)
	crash := comm.Rule(comm.FaultCrash, 1)
	crash.From = 2
	crash.Match = func(pt comm.FaultPoint) bool { return pt.Index >= 3 }
	job.Chaos = &comm.FaultPlan{Seed: 4, Rules: []comm.FaultRule{crash}}
	// Liveness backstop: even a rank blocked on a healthy-but-exited peer
	// must resolve; the Leave cascade should beat this by a wide margin.
	job.RecvTimeout = 5 * time.Second

	done := make(chan error, 1)
	go func() {
		_, err := Run(job)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("job hung after rank crash")
	}
	if err == nil {
		t.Fatal("job succeeded despite a crashed rank")
	}
	if !errors.Is(err, comm.ErrPeerDown) {
		t.Fatalf("err = %v, want ErrPeerDown in the chain", err)
	}
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("no FaultError in the chain: %v", err)
	}
	if fe.Phase == "" {
		t.Fatalf("FaultError has no phase: %+v", fe)
	}
	if !strings.Contains(err.Error(), "rank 2 crashed") {
		t.Fatalf("error does not attribute the crashed rank: %v", err)
	}
}

// Chaos rides the in-process fabric only; asking for it over TCP is a
// configuration error, not a silent fallback.
func TestChaosOverTCPRejected(t *testing.T) {
	job := testJob(strategies.EmbRace, 4)
	plan := comm.MaskableChaosPlan(1)
	job.Chaos = &plan
	job.OverTCP = true
	if err := job.Validate(); err == nil {
		t.Fatal("expected validation error for Chaos+OverTCP")
	}
}
