// TCP transport: the same Transport contract as the in-process world, but
// carried over real sockets in the binary frames of frame.go, one conn.Write
// per Send. It exists to demonstrate that the collective algorithms are
// wire-ready — nothing in internal/collective or internal/strategies knows
// which fabric it runs on — and to exercise the serialization of every
// payload the trainer moves (gradients, sparse index and value streams,
// activations, token batches).
//
// Topology: a full mesh. Rank i accepts connections from every lower rank
// and dials every higher rank, so each unordered pair shares exactly one
// TCP connection used in both directions. One reader goroutine per
// connection demultiplexes frames into the shared (sender, tag) mailboxes.
// TCPWorld runs every rank of the mesh inside one process; TCPNode is one
// rank of a mesh whose ranks are separate OS processes.
package comm

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"embrace/internal/wire"
)

// Dial retry schedule for meshes whose processes start at different times:
// up to ~10 seconds of patience.
const (
	dialAttempts = 100
	dialBackoff  = 100 * time.Millisecond
)

// helloTag marks the handshake: the first frame on a dialed connection,
// carrying the dialer's rank.
const helloTag = -1

// TCPWorld is a set of ranks connected all-to-all over loopback TCP. It is
// the single-process harness for the wire transport; the per-rank pieces
// (listener, mesh dialing, framed reader) are exactly what a multi-process
// deployment would run.
type TCPWorld struct {
	size   int
	ranks  []*tcpRank
	closed atomic.Bool
}

type tcpRank struct {
	id   int
	size int
	mail *mailboxSet

	listener net.Listener

	// shutdown distinguishes a local Close (readers stay quiet, receivers
	// get ErrClosed) from a peer dying underneath us (readers mark the peer
	// down, receivers get ErrPeerDown).
	shutdown atomic.Bool
	// left latches the first Leave so a failure cascade's repeat calls
	// cannot clobber the recorded reason or re-close connections.
	left atomic.Bool

	mu    sync.Mutex
	conns []*tcpConn // indexed by peer rank; nil for self
	wg    sync.WaitGroup
}

// tcpConn is one duplex peer connection. Exactly one frame encoder and one
// frame reader exist per connection for its whole lifetime — the handshake
// uses the same streams as the frames, because a second reader on the same
// socket would lose bytes buffered by the first.
type tcpConn struct {
	conn  net.Conn
	encMu sync.Mutex
	enc   *wire.Encoder
	dec   *wire.Reader
}

// newTCPConn wraps a socket with its lifetime encoder/reader pair.
func newTCPConn(conn net.Conn) *tcpConn {
	return &tcpConn{conn: conn, enc: &wire.Encoder{}, dec: wire.NewReader(conn)}
}

// send encodes payload as one frame into pooled scratch and writes it with
// one conn.Write, so concurrent senders never interleave bytes.
func (c *tcpConn) send(tag int, payload any) error {
	p := framePool.Get().(*[]byte)
	c.encMu.Lock()
	c.enc.Buf = (*p)[:0]
	err := encodeFrame(c.enc, tag, payload)
	if err == nil && len(c.enc.Buf) > wire.MaxFrameBytes {
		err = wire.ErrFrameSize
	}
	if err == nil {
		_, err = c.conn.Write(c.enc.Buf)
	}
	*p = c.enc.Buf[:0]
	c.enc.Buf = nil
	c.encMu.Unlock()
	framePool.Put(p)
	return err
}

// NewTCPWorld builds an n-rank world connected over 127.0.0.1 TCP sockets.
func NewTCPWorld(n int) (*TCPWorld, error) {
	if n <= 0 {
		return nil, fmt.Errorf("comm: tcp world size must be positive, got %d", n)
	}
	w := &TCPWorld{size: n, ranks: make([]*tcpRank, n)}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("comm: tcp listen: %w", err)
		}
		w.ranks[i] = &tcpRank{
			id:       i,
			size:     n,
			mail:     newMailboxSet(),
			listener: l,
			conns:    make([]*tcpConn, n),
		}
		addrs[i] = l.Addr().String()
	}

	// Accept from lower ranks (n-1-i connections each) concurrently with
	// dialing higher ranks.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.ranks[i].connectMesh(addrs)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			w.Close()
			return nil, err
		}
	}
	for _, r := range w.ranks {
		r.startReaders()
	}
	return w, nil
}

// connectMesh dials every higher rank and accepts from every lower rank.
func (r *tcpRank) connectMesh(addrs []string) error {
	type dialRes struct {
		peer int
		conn *tcpConn
		err  error
	}
	dialCh := make(chan dialRes, r.size)
	dials := 0
	for peer := r.id + 1; peer < r.size; peer++ {
		dials++
		go func(peer int) {
			// In multi-process deployments peers start at slightly
			// different times; retry refused connections briefly.
			var conn net.Conn
			var err error
			for attempt := 0; attempt < dialAttempts; attempt++ {
				conn, err = net.Dial("tcp", addrs[peer])
				if err == nil {
					break
				}
				time.Sleep(dialBackoff)
			}
			var tc *tcpConn
			if err == nil {
				tc = newTCPConn(conn)
				err = tc.send(helloTag, r.id)
			}
			dialCh <- dialRes{peer: peer, conn: tc, err: err}
		}(peer)
	}

	accepts := r.id // lower ranks dial us
	for accepts > 0 || dials > 0 {
		if accepts > 0 {
			conn, err := r.listener.Accept()
			if err != nil {
				return fmt.Errorf("comm: rank %d accept: %w", r.id, err)
			}
			tc := newTCPConn(conn)
			tag, v, err := readFrame(tc.dec)
			if err != nil {
				return fmt.Errorf("comm: rank %d handshake: %w", r.id, err)
			}
			from, ok := v.(int)
			if tag != helloTag || !ok || from < 0 || from >= r.id {
				return fmt.Errorf("comm: rank %d got handshake %T %v under tag %d", r.id, v, v, tag)
			}
			r.setConn(from, tc)
			accepts--
			continue
		}
		res := <-dialCh
		if res.err != nil {
			return fmt.Errorf("comm: rank %d dial %d: %w", r.id, res.peer, res.err)
		}
		r.setConn(res.peer, res.conn)
		dials--
	}
	return nil
}

func (r *tcpRank) setConn(peer int, tc *tcpConn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.conns[peer] = tc
}

// startReaders launches one frame-demultiplexing goroutine per peer.
func (r *tcpRank) startReaders() {
	for peer, c := range r.conns {
		if c == nil {
			continue
		}
		r.wg.Add(1)
		go func(peer int, c *tcpConn) {
			defer r.wg.Done()
			for {
				tag, payload, err := readFrame(c.dec)
				if err != nil {
					// Connection closed or broken, or the peer sent bytes
					// that are not a frame. During a local shutdown the
					// mailboxes are about to deliver ErrClosed; a peer
					// failing on its own is a single-link failure the
					// blocked receivers must hear about now, not when the
					// whole world eventually closes.
					if !r.shutdown.Load() {
						r.mail.markDown(peer, fmt.Errorf("rank %d connection lost: %v", peer, err))
					}
					return
				}
				r.mail.deliver(peer, tag, payload)
			}
		}(peer, c)
	}
}

// Rank implements Transport.
func (r *tcpRank) Rank() int { return r.id }

// Size implements Transport.
func (r *tcpRank) Size() int { return r.size }

// Send implements Transport: writes the payload to the peer connection as
// one frame. Self-sends short-circuit through the local mailbox.
func (r *tcpRank) Send(to, tag int, payload any) error {
	if to < 0 || to >= r.size {
		return fmt.Errorf("%w: send to %d in world of %d", ErrRank, to, r.size)
	}
	if err := checkPayload(payload); err != nil {
		return err
	}
	if to == r.id {
		if !r.mail.deliver(r.id, tag, payload) {
			return ErrClosed
		}
		return nil
	}
	r.mu.Lock()
	c := r.conns[to]
	r.mu.Unlock()
	if c == nil {
		return ErrClosed
	}
	if err := c.send(tag, payload); err != nil {
		return fmt.Errorf("comm: rank %d send to %d: %w", r.id, to, err)
	}
	return nil
}

// Recv implements Transport.
func (r *tcpRank) Recv(from, tag int) (any, error) {
	if from < 0 || from >= r.size {
		return nil, fmt.Errorf("%w: recv from %d in world of %d", ErrRank, from, r.size)
	}
	return r.mail.receive(from, tag)
}

// SetRecvTimeout implements TimeoutSetter.
func (r *tcpRank) SetRecvTimeout(d time.Duration) { r.mail.setTimeout(d) }

// Leave implements Leaver: closing this rank's connections makes every
// peer's reader observe the breakage and mark this rank down. Once its
// connections are closed this rank can hear nothing more, not even a peer's
// own departure, so it also marks every peer down on its own receive side:
// a receive it still has blocked (a background lane's ring hop) fails with
// ErrPeerDown instead of waiting forever. Idempotent: only the first call
// closes anything; repeats during a failure cascade are no-ops (the peers'
// recorded reason — their reader's first observation — is never rewritten).
func (r *tcpRank) Leave(reason error) {
	if r.left.Swap(true) {
		return
	}
	r.shutdown.Store(true)
	for peer := 0; peer < r.size; peer++ {
		if peer != r.id {
			r.mail.markDown(peer, fmt.Errorf("rank %d left the world: %v", r.id, reason))
		}
	}
	r.mu.Lock()
	for _, c := range r.conns {
		if c != nil {
			c.conn.Close()
		}
	}
	r.mu.Unlock()
}

// Readmit implements Readmitter for this rank's receive side: clears the
// local down marker for `peer`. The TCP connections a Leave or crash closed
// stay closed — readmission restores blocking semantics (ErrTimeout bounds
// them), not connectivity.
func (r *tcpRank) Readmit(peer int) { r.mail.readmit(peer) }

// Size returns the number of ranks.
func (w *TCPWorld) Size() int { return w.size }

// Rank returns the transport endpoint for rank i.
func (w *TCPWorld) Rank(i int) Transport { return w.ranks[i] }

// SetRecvTimeout bounds every rank's blocking receives; zero disables.
func (w *TCPWorld) SetRecvTimeout(d time.Duration) {
	for _, r := range w.ranks {
		if r != nil {
			r.mail.setTimeout(d)
		}
	}
}

// close shuts the rank down: listener, peer connections, reader goroutines,
// mailboxes. Blocked receivers return ErrClosed. A caller closing several
// ranks of one process sets every rank's shutdown flag first, so no reader
// mistakes a local close for a peer's death.
func (r *tcpRank) close() {
	r.shutdown.Store(true)
	if r.listener != nil {
		r.listener.Close()
	}
	r.mu.Lock()
	for _, c := range r.conns {
		if c != nil {
			c.conn.Close()
		}
	}
	r.mu.Unlock()
	r.wg.Wait()
	r.mail.closeAll()
}

// Close shuts down listeners, connections and mailboxes. Blocked receivers
// return ErrClosed.
func (w *TCPWorld) Close() {
	if w.closed.Swap(true) {
		return
	}
	for _, r := range w.ranks {
		if r != nil {
			r.shutdown.Store(true)
		}
	}
	for _, r := range w.ranks {
		if r != nil {
			r.close()
		}
	}
}

// RunRanksTCP runs fn concurrently on every rank of a fresh TCP world and
// waits for all to finish, returning the joined per-rank errors — RunRanks
// over real sockets.
func RunRanksTCP(n int, fn func(t Transport) error) error {
	w, err := NewTCPWorld(n)
	if err != nil {
		return err
	}
	defer w.Close()
	return runEach(n, w.Rank, fn)
}

// TCPNode is one process's rank endpoint in a multi-process TCP mesh, the
// per-process variant of TCPWorld: each OS process owns one rank, binds its
// own listen address and meshes with its peers (embrace.TrainRank drives
// it). It implements Transport, TimeoutSetter, Leaver and Readmitter, and
// must be Closed when the job ends.
type TCPNode struct {
	*tcpRank
}

// NewTCPNode creates rank `rank`'s endpoint of a len(addrs)-rank mesh,
// binding addrs[rank] and connecting to every peer. All processes must be
// started with the same address list; the call blocks until the mesh is
// fully connected. Dials to peers not yet listening are retried every
// dialBackoff, dialAttempts times (about 10 s), so the processes may start
// in any order within that window.
func NewTCPNode(rank int, addrs []string) (*TCPNode, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("comm: empty address list")
	}
	if rank < 0 || rank >= len(addrs) {
		return nil, fmt.Errorf("comm: rank %d out of range for %d addrs", rank, len(addrs))
	}
	l, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("comm: rank %d listen on %s: %w", rank, addrs[rank], err)
	}
	return NewTCPNodeFromListener(rank, l, addrs)
}

// NewTCPNodeFromListener is NewTCPNode with a caller-provided listener,
// useful when the caller binds port 0 first and distributes the resolved
// addresses (the pattern the tests use).
func NewTCPNodeFromListener(rank int, l net.Listener, addrs []string) (*TCPNode, error) {
	r := &tcpRank{
		id:       rank,
		size:     len(addrs),
		mail:     newMailboxSet(),
		listener: l,
		conns:    make([]*tcpConn, len(addrs)),
	}
	if err := r.connectMesh(addrs); err != nil {
		l.Close()
		return nil, err
	}
	r.startReaders()
	return &TCPNode{r}, nil
}

// Close shuts the node down: listener, peer connections, mailboxes.
func (n *TCPNode) Close() { n.close() }
