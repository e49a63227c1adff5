package comm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Fatal("expected error for size 0")
	}
	if _, err := NewWorld(-3); err == nil {
		t.Fatal("expected error for negative size")
	}
	w, err := NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Size() != 4 {
		t.Fatalf("Size = %d", w.Size())
	}
	if w.Rank(2).Rank() != 2 || w.Rank(2).Size() != 4 {
		t.Fatal("rank endpoint misconfigured")
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	w, _ := NewWorld(2)
	defer w.Close()
	go func() {
		_ = w.Rank(0).Send(1, 7, []byte("hello"))
	}()
	got, err := w.Rank(1).Recv(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := got.([]byte); !ok || string(b) != "hello" {
		t.Fatalf("got %v", got)
	}
}

func TestRecvBeforeSend(t *testing.T) {
	w, _ := NewWorld(2)
	defer w.Close()
	done := make(chan any, 1)
	go func() {
		v, _ := w.Rank(1).Recv(0, 1)
		done <- v
	}()
	time.Sleep(10 * time.Millisecond) // let the receiver block first
	if err := w.Rank(0).Send(1, 1, 42); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-done:
		if v != 42 {
			t.Fatalf("got %v", v)
		}
	case <-time.After(time.Second):
		t.Fatal("receiver never woke")
	}
}

func TestTagIsolation(t *testing.T) {
	// Messages with different tags must not cross, even from the same sender.
	w, _ := NewWorld(2)
	defer w.Close()
	go func() {
		_ = w.Rank(0).Send(1, 2, 2)
		_ = w.Rank(0).Send(1, 1, 1)
	}()
	v1, _ := w.Rank(1).Recv(0, 1)
	v2, _ := w.Rank(1).Recv(0, 2)
	if v1 != 1 || v2 != 2 {
		t.Fatalf("tags crossed: %v %v", v1, v2)
	}
}

func TestFIFOPerSenderTag(t *testing.T) {
	w, _ := NewWorld(2)
	defer w.Close()
	const n = 50
	go func() {
		for i := 0; i < n; i++ {
			_ = w.Rank(0).Send(1, 0, i)
		}
	}()
	for i := 0; i < n; i++ {
		v, err := w.Rank(1).Recv(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("out of order: got %v at position %d", v, i)
		}
	}
}

func TestRankRangeErrors(t *testing.T) {
	w, _ := NewWorld(2)
	defer w.Close()
	if err := w.Rank(0).Send(5, 0, nil); !errors.Is(err, ErrRank) {
		t.Fatalf("Send out of range err = %v", err)
	}
	if _, err := w.Rank(0).Recv(-1, 0); !errors.Is(err, ErrRank) {
		t.Fatalf("Recv out of range err = %v", err)
	}
}

func TestCloseUnblocksReceivers(t *testing.T) {
	w, _ := NewWorld(2)
	errc := make(chan error, 1)
	go func() {
		_, err := w.Rank(1).Recv(0, 9)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	w.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock receiver")
	}
	if err := w.Rank(0).Send(1, 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close err = %v", err)
	}
	w.Close() // double close must be safe
}

func TestConcurrentAllToAllExchange(t *testing.T) {
	// Every rank sends its rank number to every other rank and sums what it
	// receives; all must agree. Exercises concurrent mailbox creation.
	const n = 8
	err := RunRanks(n, func(tr Transport) error {
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			if p == tr.Rank() {
				continue
			}
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				_ = tr.Send(p, 3, tr.Rank())
			}(p)
		}
		sum := 0
		for p := 0; p < n; p++ {
			if p == tr.Rank() {
				continue
			}
			v, err := tr.Recv(p, 3)
			if err != nil {
				return err
			}
			sum += v.(int)
		}
		wg.Wait()
		want := n*(n-1)/2 - tr.Rank()
		if sum != want {
			return fmt.Errorf("rank %d sum %d, want %d", tr.Rank(), sum, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRanksPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	err := RunRanks(3, func(tr Transport) error {
		if tr.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestRunRanksRejectsBadSize(t *testing.T) {
	if err := RunRanks(0, func(Transport) error { return nil }); err == nil {
		t.Fatal("expected error")
	}
}
