package main

import (
	"sync"
	"time"

	"embrace/internal/comm"
	"embrace/internal/metrics"
)

// The emulated link of train_slowlink: the in-process mailbox fabric with
// the α–β cost of a real wire applied as real delay. Each directed link is a
// FIFO that serializes its messages at β bytes/s and delivers each one α
// after its last byte left, so link time is sleep, not CPU: hiding an
// exchange behind compute shortens the step, shaving kernel CPU barely does.
// There is no randomness — the same traffic gives the same schedule.
const (
	linkAlpha       = 200 * time.Microsecond
	linkBytesPerSec = 100e6
)

// linkWorld wraps a mailbox world; every rank pair gets two directed links.
type linkWorld struct {
	inner *comm.World
	alpha time.Duration
	beta  float64 // bytes per second
	ranks []*linkRank
	stop  chan struct{}
	wg    sync.WaitGroup
}

type linkRank struct {
	w     *linkWorld
	id    int
	inner comm.Transport
	out   []*link // indexed by destination; nil for self
}

// link is one directed FIFO. free is when the wire finishes serializing what
// has been queued so far; delivery times are non-decreasing, so queue order
// is delivery order.
type link struct {
	mu    sync.Mutex
	free  time.Time
	queue []linkMsg
	wake  chan struct{} // capacity 1: a pending wake-up is never lost
	err   error         // first delivery failure, returned by later Sends
}

type linkMsg struct {
	at      time.Time
	tag     int
	payload any
}

func newLinkWorld(n int, alpha time.Duration, bytesPerSec float64) (*linkWorld, error) {
	inner, err := comm.NewWorld(n)
	if err != nil {
		return nil, err
	}
	w := &linkWorld{inner: inner, alpha: alpha, beta: bytesPerSec, stop: make(chan struct{})}
	for i := 0; i < n; i++ {
		r := &linkRank{w: w, id: i, inner: inner.Rank(i), out: make([]*link, n)}
		for to := 0; to < n; to++ {
			if to == i {
				continue
			}
			l := &link{wake: make(chan struct{}, 1)}
			r.out[to] = l
			w.wg.Add(1)
			go func() {
				defer w.wg.Done()
				w.deliver(l, r.inner, to)
			}()
		}
		w.ranks = append(w.ranks, r)
	}
	return w, nil
}

// delay is the modelled one-way time of a message of the given size on an
// idle link.
func (w *linkWorld) delay(bytes int64) time.Duration {
	return w.alpha + time.Duration(float64(bytes)/w.beta*float64(time.Second))
}

// deliver drains one link: it sleeps until the head message's delivery time
// and hands it to the mailbox fabric.
func (w *linkWorld) deliver(l *link, from comm.Transport, to int) {
	for {
		l.mu.Lock()
		var m linkMsg
		have := len(l.queue) > 0
		if have {
			m = l.queue[0]
			l.queue[0] = linkMsg{}
			l.queue = l.queue[1:]
		}
		l.mu.Unlock()
		if !have {
			select {
			case <-l.wake:
				continue
			case <-w.stop:
				return
			}
		}
		if d := time.Until(m.at); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-w.stop:
				timer.Stop()
				return
			}
		}
		if err := from.Send(to, m.tag, m.payload); err != nil {
			l.mu.Lock()
			if l.err == nil {
				l.err = err
			}
			l.mu.Unlock()
		}
	}
}

func (w *linkWorld) Rank(i int) comm.Transport { return w.ranks[i] }

// Close stops the delivery goroutines, waits for them, and closes the
// mailbox world underneath.
func (w *linkWorld) Close() {
	close(w.stop)
	w.wg.Wait()
	w.inner.Close()
}

func (r *linkRank) Rank() int { return r.id }
func (r *linkRank) Size() int { return len(r.out) }

// Send queues the payload on the link to `to` and returns at once, like a
// NIC with a deep send queue. Self-sends do not touch a link.
func (r *linkRank) Send(to, tag int, payload any) error {
	if to == r.id || to < 0 || to >= len(r.out) {
		return r.inner.Send(to, tag, payload)
	}
	l := r.out[to]
	now := time.Now()
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.free.Before(now) {
		l.free = now
	}
	l.free = l.free.Add(r.w.delay(metrics.PayloadSize(payload)) - r.w.alpha)
	l.queue = append(l.queue, linkMsg{at: l.free.Add(r.w.alpha), tag: tag, payload: payload})
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
	return nil
}

func (r *linkRank) Recv(from, tag int) (any, error) { return r.inner.Recv(from, tag) }

// Leave implements comm.Leaver by leaving the mailbox world underneath, so a
// rank that fails unblocks its peers.
func (r *linkRank) Leave(reason error) {
	if l, ok := r.inner.(comm.Leaver); ok {
		l.Leave(reason)
	}
}
