package comm

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// recvWithGuard runs one Recv under a hang guard: elastic recovery depends
// on departed peers producing errors, never hangs.
func recvWithGuard(t *testing.T, tr Transport, from, tag int) (any, error) {
	t.Helper()
	type res struct {
		v   any
		err error
	}
	ch := make(chan res, 1)
	go func() {
		v, err := tr.Recv(from, tag)
		ch <- res{v, err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-time.After(5 * time.Second):
		t.Fatal("Recv hung")
		return nil, nil
	}
}

// Leave must be idempotent with the FIRST reason winning: during a failure
// cascade, a rank's own Leave races peers' death notices and secondary
// observations ("peer down" seen while already tearing down). If a repeat
// call could rewrite the recorded reason, the fault the supervisor
// attributes would depend on goroutine scheduling.
func TestLeaveIdempotentFirstReasonWins(t *testing.T) {
	w, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	w.Rank(0).(Leaver).Leave(errors.New("root cause"))
	w.Rank(0).(Leaver).Leave(errors.New("secondary observation"))

	for _, peer := range []int{1, 2} {
		_, err := recvWithGuard(t, w.Rank(peer), 0, 7)
		if !errors.Is(err, ErrPeerDown) {
			t.Fatalf("rank %d: err = %v, want ErrPeerDown", peer, err)
		}
		if !strings.Contains(err.Error(), "root cause") {
			t.Fatalf("rank %d: reason %q lost the first Leave's cause", peer, err)
		}
		if strings.Contains(err.Error(), "secondary observation") {
			t.Fatalf("rank %d: second Leave rewrote the reason: %q", peer, err)
		}
	}
}

// Concurrent repeats of Leave — the realistic cascade shape — must also
// collapse to one marking. Run with -race.
func TestLeaveConcurrentlyIdempotent(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w.Rank(0).(Leaver).Leave(errors.New("racing leave"))
		}(i)
	}
	wg.Wait()
	if _, err := recvWithGuard(t, w.Rank(1), 0, 1); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("err = %v, want ErrPeerDown", err)
	}
}

// The idempotence + readmission contract across all three fabrics: a double
// Leave is harmless, survivors observe ErrPeerDown, and Readmit restores
// the receive side — to working delivery on the in-process fabric (whose
// channels survive a Leave), to bounded ErrTimeout blocking on the TCP
// fabrics (whose connections do not).
func TestLeaveReadmitAcrossFabrics(t *testing.T) {
	cases := []struct {
		name string
		// build returns the three transports, a readmit-everywhere hook for
		// rank 0, whether delivery works again after readmission, and cleanup.
		build func(t *testing.T) (trs []Transport, readmit func(), reconnects bool, cleanup func())
	}{
		{
			name: "in-process",
			build: func(t *testing.T) ([]Transport, func(), bool, func()) {
				w, err := NewWorld(3)
				if err != nil {
					t.Fatal(err)
				}
				trs := []Transport{w.Rank(0), w.Rank(1), w.Rank(2)}
				return trs, func() { w.Readmit(0) }, true, w.Close
			},
		},
		{
			name: "tcp-loopback",
			build: func(t *testing.T) ([]Transport, func(), bool, func()) {
				w, err := NewTCPWorld(3)
				if err != nil {
					t.Fatal(err)
				}
				trs := []Transport{w.Rank(0), w.Rank(1), w.Rank(2)}
				readmit := func() {
					for _, tr := range trs[1:] {
						tr.(Readmitter).Readmit(0)
					}
				}
				return trs, readmit, false, w.Close
			},
		},
		{
			name: "tcp-node-mesh",
			build: func(t *testing.T) ([]Transport, func(), bool, func()) {
				nodes := dialMesh(t, 3)
				trs := []Transport{nodes[0], nodes[1], nodes[2]}
				readmit := func() {
					nodes[1].Readmit(0)
					nodes[2].Readmit(0)
				}
				cleanup := func() {
					for _, n := range nodes {
						n.Close()
					}
				}
				return trs, readmit, false, cleanup
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trs, readmit, reconnects, cleanup := tc.build(t)
			defer cleanup()
			for _, tr := range trs {
				tr.(TimeoutSetter).SetRecvTimeout(200 * time.Millisecond)
			}

			// Double Leave: second call is a no-op, not a panic or re-mark.
			trs[0].(Leaver).Leave(errors.New("fault injection"))
			trs[0].(Leaver).Leave(errors.New("repeat"))

			for _, peer := range []int{1, 2} {
				if _, err := recvWithGuard(t, trs[peer], 0, 3); !errors.Is(err, ErrPeerDown) {
					t.Fatalf("rank %d pre-readmit: err = %v, want ErrPeerDown", peer, err)
				}
			}

			readmit()

			if reconnects {
				// In-process: delivery works again in both directions.
				if err := trs[0].Send(1, 4, 42); err != nil {
					t.Fatalf("post-readmit send: %v", err)
				}
				if v, err := recvWithGuard(t, trs[1], 0, 4); err != nil || v != 42 {
					t.Fatalf("post-readmit recv: %v %v", v, err)
				}
				// The Leave latch is re-armed: a fresh Leave marks down again.
				trs[0].(Leaver).Leave(errors.New("second life over"))
				if _, err := recvWithGuard(t, trs[1], 0, 5); !errors.Is(err, ErrPeerDown) {
					t.Fatalf("re-leave: err = %v, want ErrPeerDown", err)
				}
			} else {
				// TCP: connections stay closed; readmission restores bounded
				// blocking (ErrTimeout), not instant ErrPeerDown.
				for _, peer := range []int{1, 2} {
					if _, err := recvWithGuard(t, trs[peer], 0, 6); !errors.Is(err, ErrTimeout) {
						t.Fatalf("rank %d post-readmit: err = %v, want ErrTimeout", peer, err)
					}
				}
			}
		})
	}
}

// Readmitting a peer that was never down is a no-op, and readmission on one
// rank's receive side does not disturb another's pending down marker.
func TestReadmitScopedToReceiveSide(t *testing.T) {
	w, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	w.Rank(1).(Readmitter).Readmit(0) // never down: no-op
	if err := w.Rank(0).Send(1, 1, 5); err != nil {
		t.Fatal(err)
	}
	if v, err := recvWithGuard(t, w.Rank(1), 0, 1); err != nil || v != 5 {
		t.Fatalf("recv after no-op readmit: %v %v", v, err)
	}

	w.Rank(0).(Leaver).Leave(errors.New("gone"))
	w.Rank(1).(Readmitter).Readmit(0) // rank 1 forgives...
	w.Rank(1).(TimeoutSetter).SetRecvTimeout(50 * time.Millisecond)
	if _, err := recvWithGuard(t, w.Rank(1), 0, 2); !errors.Is(err, ErrTimeout) {
		t.Fatalf("rank 1 post-readmit: err = %v, want ErrTimeout", err)
	}
	// ...but rank 2's marker is untouched.
	if _, err := recvWithGuard(t, w.Rank(2), 0, 2); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("rank 2: err = %v, want ErrPeerDown", err)
	}
}
