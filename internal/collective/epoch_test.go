package collective

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"embrace/internal/comm"
)

// Epoch planes partition the tag space: the same op under different epochs
// must never share a tag — the property that lets an elastic rebuild ignore
// a dead world's in-flight frames wholesale.
func TestEpochTagsDisjoint(t *testing.T) {
	w, err := comm.NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	seen := map[int]string{}
	for _, epoch := range []int{0, 1, 2, MaxEpoch} {
		c := NewCommunicator(w.Rank(0), WithEpoch(epoch))
		for _, op := range []string{"emb/tokens", "emb/grad"} {
			tag, err := c.Tag(op)
			if err != nil {
				t.Fatal(err)
			}
			if tag <= 0 {
				t.Fatalf("epoch %d op %q: tag %d not a positive int64", epoch, op, tag)
			}
			key := fmt.Sprintf("%s@%d", op, epoch)
			if prev, ok := seen[tag]; ok {
				t.Fatalf("%s reuses %s's tag %d", key, prev, tag)
			}
			seen[tag] = key
		}
	}

	// Epoch 0 is the default plane and the one TagOf addresses, so chaos
	// predicates built from TagOf match a default Communicator's sends.
	def := NewCommunicator(w.Rank(0))
	e0 := NewCommunicator(w.Rank(0), WithEpoch(0))
	dt, _ := def.Tag("emb/tokens")
	et, _ := e0.Tag("emb/tokens")
	if ot := TagOf("emb/tokens"); dt != et || dt != ot {
		t.Fatalf("default/epoch-0/TagOf disagree: %d %d %d", dt, et, ot)
	}

	c := NewCommunicator(w.Rank(0), WithEpoch(MaxEpoch+1))
	if _, err := c.Tag("emb/tokens"); err == nil {
		t.Fatal("expected error for epoch beyond MaxEpoch")
	}
}

// The stale-frame rejection the world-epoch protocol relies on: a frame a
// dead epoch's straggler goroutine left in flight is NEVER matched by the
// rebuilt epoch's receives — it times out instead of being consumed — and
// the new epoch's own traffic flows past it untouched.
func TestEpochRejectsStaleFramesFromOldWorld(t *testing.T) {
	w, err := comm.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// A dead epoch-0 world's straggler: rank 0 sent (op "emb/grad", step 3)
	// just before the fault tore the epoch down.
	old0 := NewCommunicator(w.Rank(0))
	if err := old0.Send("emb/grad", 3, 1, []float32{6, 6, 6}); err != nil {
		t.Fatal(err)
	}

	// The rebuilt world runs in epoch 1. Same op, same step — the stale
	// frame must not satisfy this receive.
	new1 := NewCommunicator(w.Rank(1), WithEpoch(1))
	w.Rank(1).(comm.TimeoutSetter).SetRecvTimeout(100 * time.Millisecond)
	if _, err := new1.Recv("emb/grad", 3, 0); !errors.Is(err, comm.ErrTimeout) {
		t.Fatalf("stale frame consumed: err = %v, want ErrTimeout", err)
	}

	// New-epoch traffic flows normally with the stale frame still queued.
	new0 := NewCommunicator(w.Rank(0), WithEpoch(1))
	if err := new0.Send("emb/grad", 3, 1, []float32{1, 2}); err != nil {
		t.Fatal(err)
	}
	got, err := new1.Recv("emb/grad", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := got.([]float32)
	if !ok || len(v) != 2 || v[0] != 1 || v[1] != 2 {
		t.Fatalf("new-epoch recv = %v, want [1 2]", got)
	}

	// And the old plane still holds its frame: an epoch-0 receive (a
	// straggler of the dead world draining late) finds it, proving the new
	// epoch really did leave it alone rather than discard it.
	old1 := NewCommunicator(w.Rank(1))
	if got, err := old1.Recv("emb/grad", 3, 0); err != nil {
		t.Fatal(err)
	} else if v := got.([]float32); len(v) != 3 || v[0] != 6 {
		t.Fatalf("old-epoch frame = %v, want [6 6 6]", got)
	}
}

// Collectives rebuilt in a fresh epoch start their sequence streams from
// zero and complete normally — the old epoch's sequence state is per-tag,
// so a new plane means a clean slate.
func TestEpochCollectivesRunCleanAfterRebuild(t *testing.T) {
	w, err := comm.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	run := func(epoch int) {
		t.Helper()
		errs := make(chan error, 3)
		for i := 0; i < 3; i++ {
			go func(i int) {
				c := NewCommunicator(w.Rank(i), WithEpoch(epoch))
				parts, err := AllGatherVia(c, "x", 0, []int64{int64(i)})
				if err != nil {
					errs <- err
					return
				}
				for j, p := range parts {
					if len(p) != 1 || p[0] != int64(j) {
						errs <- errors.New("bad gather")
						return
					}
				}
				errs <- c.Barrier("b", 0)
			}(i)
		}
		for i := 0; i < 3; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("epoch %d: %v", epoch, err)
			}
		}
	}
	run(0)
	run(1) // same world, fresh plane: must not trip on epoch 0's sequence state
	run(2)
}
