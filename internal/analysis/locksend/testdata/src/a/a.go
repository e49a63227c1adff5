// Package a exercises the locksend analyzer: blocking communication under a
// held mutex is flagged; the release-then-communicate pattern is not.
package a

import (
	"sync"

	"embrace/internal/collective"
	"embrace/internal/comm"
)

type server struct {
	mu    sync.Mutex
	state sync.RWMutex
	buf   []float64
	t     comm.Transport
	c     *collective.Communicator
}

func (s *server) deferHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c.AllReduce("grads", 0, s.buf) // want `blocking Communicator\.AllReduce while "s\.mu" is locked`
}

func (s *server) explicitHeld() {
	s.mu.Lock()
	s.t.Send(1, 7, nil) // want `blocking Transport\.Send while "s\.mu" is locked`
	s.mu.Unlock()
}

func (s *server) readLockHeld() {
	s.state.RLock()
	_ = collective.AllGatherVia(s.c, "meta", 0, len(s.buf)) // want `blocking collective\.AllGatherVia while "s\.state" is locked`
	s.state.RUnlock()
}

// sparseHeld: the sparse AlltoAll is a collective like any other.
func (s *server) sparseHeld(send [][]int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.AlltoAllSparse("emb/grad", 0, send, nil) // want `blocking Communicator\.AlltoAllSparse while "s\.mu" is locked`
}

// releaseFirst is the approved pattern: copy what you need under the lock,
// release, then communicate.
func (s *server) releaseFirst() {
	s.mu.Lock()
	local := append([]float64(nil), s.buf...)
	s.mu.Unlock()
	s.c.AllReduce("grads", 0, local)
}

// relockAfter shows the lock being retaken after the collective; only calls
// made while held are flagged.
func (s *server) relockAfter() {
	s.mu.Lock()
	n := len(s.buf)
	s.mu.Unlock()
	s.c.Barrier("epoch", n)
	s.mu.Lock()
	s.buf = s.buf[:0]
	s.mu.Unlock()
}

// goroutineScope: the literal passed to go runs on another goroutine with its
// own (empty) lock scope, so its collective is not under this function's lock.
func (s *server) goroutineScope() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.c.Barrier("background", 0)
	}()
}

// litOwnLock: a function literal is its own scope and is flagged on its own
// lock, not the enclosing function's.
func (s *server) litOwnLock() func() {
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.t.Recv(0, 3) // want `blocking Transport\.Recv while "s\.mu" is locked`
	}
}

// tagOnly: Communicator bookkeeping does not block and is fine under a lock.
func (s *server) tagOnly() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.Tag("grads")
}

// justified keeps the suppression mechanism honest for this analyzer too.
func (s *server) justified() {
	s.mu.Lock()
	defer s.mu.Unlock()
	//embrace:allow locksend fixture documents a single-rank shutdown path that cannot deadlock
	s.c.Barrier("shutdown", 0)
}
