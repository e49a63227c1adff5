package comm

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// dialMesh builds an n-node TCP mesh of per-process-style endpoints.
func dialMesh(t *testing.T, n int) []*TCPNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	nodes := make([]*TCPNode, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nodes[i], errs[i] = NewTCPNodeFromListener(i, listeners[i], addrs)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return nodes
}

// Failure injection: abrupt TCP teardown must surface as ErrClosed on
// blocked receivers of the surviving side, never as a hang or panic.
func TestTCPAbruptPeerCloseUnblocksReceiver(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := w.Rank(1).Recv(0, 5) // will never be satisfied
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	w.Close() // tears down sockets under the blocked receiver
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("receiver hung after teardown")
	}
}

func TestSendAfterTCPCloseErrors(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := w.Rank(0).Send(1, 1, []float32{1}); err == nil {
		t.Fatal("expected error after close")
	}
}

// A single peer dying is not the world shutting down: the survivor's blocked
// receives on the dead rank must fail fast with ErrPeerDown — attributed to
// that rank — while links between surviving ranks keep working.
func TestTCPSinglePeerDeathIsAttributed(t *testing.T) {
	nodes := dialMesh(t, 3)
	defer func() {
		for _, n := range nodes[1:] {
			n.Close()
		}
	}()

	errc := make(chan error, 1)
	go func() {
		_, err := nodes[1].Recv(0, 9) // never satisfied: rank 0 dies first
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	nodes[0].Close() // one process exits; the mesh stays up

	select {
	case err := <-errc:
		if !errors.Is(err, ErrPeerDown) {
			t.Fatalf("err = %v, want ErrPeerDown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("receiver hung after single peer death")
	}

	// The surviving link is unaffected.
	if err := nodes[1].Send(2, 1, 42); err != nil {
		t.Fatalf("survivor link send: %v", err)
	}
	if v, err := nodes[2].Recv(1, 1); err != nil || v != 42 {
		t.Fatalf("survivor link recv: %v %v", v, err)
	}
}

// Leave is the voluntary version of death: peers observe ErrPeerDown without
// the leaver tearing down its mailboxes mid-use.
func TestTCPNodeLeaveWakesPeers(t *testing.T) {
	nodes := dialMesh(t, 2)
	defer nodes[0].Close()
	defer nodes[1].Close()

	errc := make(chan error, 1)
	go func() {
		_, err := nodes[1].Recv(0, 3)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	nodes[0].Leave(errors.New("done early"))

	select {
	case err := <-errc:
		if !errors.Is(err, ErrPeerDown) {
			t.Fatalf("err = %v, want ErrPeerDown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("receiver hung after peer left")
	}
}

// Leave also wakes the leaver's own receives: with its connections closed it
// can no longer hear a live peer, nor that peer's later departure, so a
// receive it still has blocked (a background lane) must fail, not hang.
func TestTCPLeaveWakesOwnReceives(t *testing.T) {
	w, err := NewTCPWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := w.Rank(0).Recv(1, 3)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	w.Rank(0).(Leaver).Leave(errors.New("step failed"))

	select {
	case err := <-errc:
		if !errors.Is(err, ErrPeerDown) || !strings.Contains(err.Error(), "step failed") {
			t.Fatalf("err = %v, want ErrPeerDown carrying the leave reason", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("leaver's own receive hung")
	}
	// Rank 1 and rank 2 were never told anything about each other.
	if err := w.Rank(1).Send(2, 1, 42); err != nil {
		t.Fatalf("survivor link send: %v", err)
	}
	if v, err := w.Rank(2).Recv(1, 1); err != nil || v != 42 {
		t.Fatalf("survivor link recv: %v %v", v, err)
	}
}

// With a receive timeout set, a silent peer costs bounded time, not a hang.
func TestTCPRecvTimeout(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetRecvTimeout(30 * time.Millisecond)
	if _, err := w.Rank(0).Recv(1, 5); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// A message that does arrive in time is unaffected.
	if err := w.Rank(1).Send(0, 6, 7); err != nil {
		t.Fatal(err)
	}
	if v, err := w.Rank(0).Recv(1, 6); err != nil || v != 7 {
		t.Fatalf("timely recv: %v %v", v, err)
	}
}

func TestInProcessWorldSurvivesManyChurnCycles(t *testing.T) {
	// Worlds are created and torn down once per training job; leaking
	// goroutines or channels would show up over many cycles.
	for i := 0; i < 200; i++ {
		w, err := NewWorld(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Rank(0).Send(1, 1, i); err != nil {
			t.Fatal(err)
		}
		if v, err := w.Rank(1).Recv(0, 1); err != nil || v != i {
			t.Fatalf("cycle %d: %v %v", i, v, err)
		}
		w.Close()
	}
}
