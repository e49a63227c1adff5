package comm

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func TestNewTCPWorldValidation(t *testing.T) {
	if _, err := NewTCPWorld(0); err == nil {
		t.Fatal("expected error for size 0")
	}
}

func TestTCPSendRecvRoundTrip(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	go func() {
		_ = w.Rank(0).Send(1, 7, []float32{1, 2, 3})
	}()
	got, err := w.Rank(1).Recv(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	vs := got.([]float32)
	if len(vs) != 3 || vs[2] != 3 {
		t.Fatalf("got %v", vs)
	}
}

func TestTCPSelfSend(t *testing.T) {
	w, err := NewTCPWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Rank(0).Send(0, 1, 42); err != nil {
		t.Fatal(err)
	}
	v, err := w.Rank(0).Recv(0, 1)
	if err != nil || v != 42 {
		t.Fatalf("got %v err %v", v, err)
	}
}

func TestTCPTagIsolationAndFIFO(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n = 30
	go func() {
		for i := 0; i < n; i++ {
			_ = w.Rank(0).Send(1, 5, i)
		}
		_ = w.Rank(0).Send(1, 9, -9)
	}()
	for i := 0; i < n; i++ {
		v, err := w.Rank(1).Recv(0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("out of order at %d: %v", i, v)
		}
	}
	if v, _ := w.Rank(1).Recv(0, 9); v != -9 {
		t.Fatalf("tag crosstalk: %v", v)
	}
}

func TestTCPRankRangeErrors(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Rank(0).Send(5, 0, nil); !errors.Is(err, ErrRank) {
		t.Fatalf("err = %v", err)
	}
	if _, err := w.Rank(0).Recv(-1, 0); !errors.Is(err, ErrRank) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPCloseUnblocksReceivers(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := w.Rank(1).Recv(0, 99)
		errc <- err
	}()
	w.Close()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	w.Close() // idempotent
}

func TestTCPFullMeshExchange(t *testing.T) {
	// Every rank sends to every other rank over real sockets concurrently.
	const n = 5
	err := RunRanksTCP(n, func(tr Transport) error {
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			if p == tr.Rank() {
				continue
			}
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				_ = tr.Send(p, 3, tr.Rank()*100+p)
			}(p)
		}
		for p := 0; p < n; p++ {
			if p == tr.Rank() {
				continue
			}
			v, err := tr.Recv(p, 3)
			if err != nil {
				return err
			}
			if v != p*100+tr.Rank() {
				return fmt.Errorf("rank %d from %d: got %v", tr.Rank(), p, v)
			}
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Every failing rank's error comes back, not only the first: RunRanksTCP
// joins them like RunRanks and RunRanksChaos.
func TestRunRanksTCPPropagatesError(t *testing.T) {
	boom1, boom2 := errors.New("boom from rank 1"), errors.New("boom from rank 2")
	err := RunRanksTCP(3, func(tr Transport) error {
		switch tr.Rank() {
		case 1:
			return boom1
		case 2:
			return boom2
		}
		return nil
	})
	if !errors.Is(err, boom1) || !errors.Is(err, boom2) {
		t.Fatalf("err = %v, want both ranks' errors", err)
	}
}

func TestTCPNodeMesh(t *testing.T) {
	// Multi-process-style nodes inside one test: bind ephemeral listeners
	// first, share the resolved addresses, then connect each node.
	const n = 3
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
	var wg sync.WaitGroup
	errs := make([]error, n)
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
	defer func() {
		for _, node := range nodes {
			node.Close()
		}
	}()
	// Exchange across the mesh.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if err := nodes[i].Send(j, 1, i*10+j); err != nil {
				t.Fatal(err)
			}
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if i == j {
				continue
			}
			v, err := nodes[j].Recv(i, 1)
			if err != nil {
				t.Fatal(err)
			}
			if v != i*10+j {
				t.Fatalf("node %d from %d: %v", j, i, v)
			}
		}
	}
}

func TestNewTCPNodeValidation(t *testing.T) {
	if _, err := NewTCPNode(0, nil); err == nil {
		t.Fatal("expected empty-addrs error")
	}
	if _, err := NewTCPNode(2, []string{"127.0.0.1:0"}); err == nil {
		t.Fatal("expected rank-range error")
	}
}

func TestNewTCPNodeDialRetry(t *testing.T) {
	// Rank 0 starts before rank 1's listener exists; the dial retry must
	// bridge the gap, as when processes start at different times.
	l0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{l0.Addr().String(), l1.Addr().String()}
	addr1 := l1.Addr().String()
	l1.Close() // rank 1 not up yet

	var node0 *TCPNode
	var err0 error
	done := make(chan struct{})
	go func() {
		defer close(done)
		node0, err0 = NewTCPNodeFromListener(0, l0, addrs)
	}()

	time.Sleep(300 * time.Millisecond) // let rank 0 hit refused dials
	l1b, err := net.Listen("tcp", addr1)
	if err != nil {
		t.Fatal(err)
	}
	node1, err := NewTCPNodeFromListener(1, l1b, addrs)
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if err0 != nil {
		t.Fatal(err0)
	}
	defer node0.Close()
	defer node1.Close()
	if err := node0.Send(1, 1, 99); err != nil {
		t.Fatal(err)
	}
	if v, _ := node1.Recv(0, 1); v != 99 {
		t.Fatalf("got %v", v)
	}
}
