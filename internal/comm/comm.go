// Package comm provides the message transport underneath the collective
// operations.
//
// The paper's testbed runs one training process per GPU and moves bytes with
// NCCL. Here every rank is a goroutine and the transport is an in-process
// mailbox fabric: Send/Recv pairs matched on (peer, tag). The collective
// algorithms in internal/collective are written against the Transport
// interface only, so their data-movement pattern is exactly what a wire
// implementation would perform.
package comm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Transport is the point-to-point fabric a single rank uses. Implementations
// must be safe for concurrent use: a rank may run several collectives at once
// (the communication thread of §5.1 overlaps sparse and dense ops) as long as
// each concurrent operation uses a distinct tag space.
type Transport interface {
	// Rank returns this participant's rank in [0, Size).
	Rank() int
	// Size returns the number of participants (the paper's N).
	Size() int
	// Send delivers payload to rank `to` under `tag`. It blocks only on
	// backpressure, never on the receiver being absent. A payload outside
	// the wire's value set, bare or in one SeqFrame, fails with
	// wire.ErrPayloadType on every fabric.
	Send(to, tag int, payload any) error
	// Recv blocks until a payload sent to this rank by `from` under `tag`
	// arrives, and returns it.
	Recv(from, tag int) (any, error)
}

// ErrClosed is returned by operations on a closed world.
var ErrClosed = errors.New("comm: world closed")

// ErrRank is returned when a peer rank is out of range.
var ErrRank = errors.New("comm: rank out of range")

// ErrPeerDown is returned when the counterpart of an operation is known to
// be dead: its process crashed, its connection broke, or it left the world
// after a failure. Unlike ErrClosed (the local world was shut down), the
// rest of the world is still alive, so callers can attribute the failure to
// the specific peer carried in the error message.
var ErrPeerDown = errors.New("comm: peer down")

// ErrTimeout is returned by Recv when a RecvTimeout is configured and no
// message arrived in time. It is the detector of last resort for peers that
// die without the transport noticing.
var ErrTimeout = errors.New("comm: receive timed out")

// ErrTransient is a retryable send failure: the message was not delivered,
// but an identical re-send may succeed. The chaos transport injects it;
// resilient senders (collective.Communicator) retry with backoff.
var ErrTransient = errors.New("comm: transient send failure")

// TimeoutSetter is implemented by transports whose blocking receives can be
// bounded. A zero duration disables the timeout (block forever).
type TimeoutSetter interface {
	SetRecvTimeout(d time.Duration)
}

// Leaver is implemented by transports that can announce their own departure:
// Leave marks this rank down for every peer, so receivers blocked on it fail
// fast with ErrPeerDown instead of hanging until the whole world closes.
// A rank that aborts a collective mid-protocol should Leave so the failure
// cascades cleanly instead of deadlocking the survivors. The leaver's own
// blocked receives must still end: the in-process fabrics wake them when the
// peers leave in turn; TCP, which closes the leaver's connections and so can
// no longer hear those departures, marks every peer down on the leaver's
// receive side at once. Leave is idempotent:
// the first call's reason wins, and later calls — its own Leave racing a
// peer's death notice during a failure cascade — are no-ops that neither
// re-wake receivers nor clobber the recorded reason.
type Leaver interface {
	Leave(reason error)
}

// Readmitter is implemented by transports that can clear a peer's down
// markers after it recovers: Readmit makes subsequent receives from the peer
// block normally again instead of failing fast with its stale death notice.
// It is receiver-side state only — re-establishing the peer's connectivity
// (if the fabric ever lost it) is a separate concern, so on the TCP fabrics
// a readmitted-but-unreachable peer surfaces as ErrTimeout rather than
// ErrPeerDown.
type Readmitter interface {
	Readmit(peer int)
}

// SeqFrame is the ordered-delivery envelope resilient senders wrap payloads
// in: a per-(sender, tag) sequence number, the step the sender issued the
// message for, and the payload. The transport treats it as an opaque
// payload; the receiving Communicator uses Seq to drop duplicated frames and
// reorder delayed ones and checks Step against its own, the chaos transport
// reads Step into FaultPoint, and metrics unwraps it when sizing traffic.
// Exported so every layer agrees on the one envelope type; the TCP wire
// gives it a frame kind of its own.
type SeqFrame struct {
	Seq     int64
	Step    int
	Payload any
}

// mailboxBuffer is the per-(sender, tag) channel capacity. Collectives never
// have more than a few in-flight messages per edge, but a generous buffer
// keeps senders from blocking on slow receivers.
const mailboxBuffer = 64

type mailboxKey struct {
	from, tag int
}

// mailboxSet is the demultiplexer shared by every transport implementation:
// messages are delivered per (sender, tag) channel in FIFO order, and
// receivers block on exactly their envelope. It also carries the local
// failure model: per-peer down markers (set when a peer is known dead) and
// an optional receive timeout, so a blocked receiver fails with ErrPeerDown
// or ErrTimeout instead of hanging until the whole world closes.
type mailboxSet struct {
	mu    sync.Mutex
	boxes map[mailboxKey]chan any
	peers map[int]*peerState

	// closedCh is closed by closeAll. Teardown signals through it instead of
	// closing the mailbox channels: an in-flight deliver (a chaos-delayed
	// send, a TCP reader landing a late frame) may be blocked in `ch <-` at
	// that very moment, and close-under-send is a data race. Selecting on
	// closedCh lets senders and receivers observe teardown without anyone
	// ever closing a channel someone else might be writing.
	closedCh chan struct{}

	// timeoutNS is the receive timeout in nanoseconds; zero blocks forever.
	// It starts at testRecvTimeout in test binaries, zero otherwise.
	timeoutNS atomic.Int64
}

// peerState tracks one sender's liveness as seen by this receiver. downCh is
// closed (after reason is set under the set's mutex) when the peer is marked
// down; the channel-close ordering makes reason safe to read afterwards.
type peerState struct {
	downCh chan struct{}
	down   bool
	reason error
}

// testRecvTimeout is the receive deadline every fabric starts with in test
// binaries. A collective issued on some ranks only then fails within
// seconds, with an error naming the peer (and, through the Communicator, the
// op), instead of hanging until go test panics. An explicit SetRecvTimeout
// still wins; product binaries block forever by default.
const testRecvTimeout = 10 * time.Second

func newMailboxSet() *mailboxSet {
	m := &mailboxSet{
		boxes:    make(map[mailboxKey]chan any),
		peers:    make(map[int]*peerState),
		closedCh: make(chan struct{}),
	}
	if testing.Testing() {
		m.timeoutNS.Store(int64(testRecvTimeout))
	}
	return m
}

// box returns (creating if needed) the channel for (from, tag), or nil if
// the set has been closed.
func (m *mailboxSet) box(from, tag int) chan any {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.boxes == nil {
		return nil
	}
	key := mailboxKey{from: from, tag: tag}
	ch, ok := m.boxes[key]
	if !ok {
		ch = make(chan any, mailboxBuffer)
		m.boxes[key] = ch
	}
	return ch
}

// deliver enqueues payload for (from, tag). It reports false if the set is
// closed. A deliver blocked on a full mailbox unblocks (and drops) when the
// set closes underneath it — late stragglers observe teardown through
// closedCh rather than panicking on a closed channel.
func (m *mailboxSet) deliver(from, tag int, payload any) bool {
	ch := m.box(from, tag)
	if ch == nil {
		return false
	}
	select {
	case ch <- payload:
		return true
	case <-m.closedCh:
		return false
	}
}

// peer returns (creating if needed) the liveness record for `from`, or nil
// if the set has been closed.
func (m *mailboxSet) peer(from int) *peerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.peers == nil {
		return nil
	}
	ps, ok := m.peers[from]
	if !ok {
		ps = &peerState{downCh: make(chan struct{})}
		m.peers[from] = ps
	}
	return ps
}

// markDown records that `from` is dead for the given reason, waking every
// receiver blocked on it. Idempotent; the first reason wins.
func (m *mailboxSet) markDown(from int, reason error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.peers == nil {
		return // closed; receivers already unblocked with ErrClosed
	}
	ps, ok := m.peers[from]
	if !ok {
		ps = &peerState{downCh: make(chan struct{})}
		m.peers[from] = ps
	}
	if ps.down {
		return
	}
	ps.down = true
	if reason == nil {
		reason = ErrPeerDown
	} else if !errors.Is(reason, ErrPeerDown) {
		reason = fmt.Errorf("%w: %v", ErrPeerDown, reason)
	}
	ps.reason = reason
	close(ps.downCh)
}

// readmit clears `from`'s down marker by installing a fresh liveness record,
// so subsequent receives block normally again. A receiver that grabbed the
// old record before the swap still observes the stale death notice once —
// the benign race window of a between-steps readmission, closed by the
// barrier every world rebuild runs before new traffic flows.
func (m *mailboxSet) readmit(from int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.peers == nil {
		return // closed
	}
	if ps, ok := m.peers[from]; ok && ps.down {
		m.peers[from] = &peerState{downCh: make(chan struct{})}
	}
}

// setTimeout bounds every subsequent blocking receive; zero disables.
func (m *mailboxSet) setTimeout(d time.Duration) {
	m.timeoutNS.Store(int64(d))
}

// receive blocks until a payload for (from, tag) arrives, the sender is
// marked down (ErrPeerDown), the configured timeout elapses (ErrTimeout),
// or the set is closed (ErrClosed). Messages already queued are always
// drained before a down marker is honored, so a peer's final sends are
// never lost to its own death notice.
func (m *mailboxSet) receive(from, tag int) (any, error) {
	ch := m.box(from, tag)
	if ch == nil {
		return nil, ErrClosed
	}
	// Fast path: queued messages win over down markers and timeouts.
	select {
	case payload := <-ch:
		return payload, nil
	default:
	}
	ps := m.peer(from)
	if ps == nil {
		return nil, ErrClosed
	}
	var timeC <-chan time.Time
	if d := time.Duration(m.timeoutNS.Load()); d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeC = timer.C
	}
	select {
	case payload := <-ch:
		return payload, nil
	case <-ps.downCh:
		// A message may have raced in just before the down marker; prefer it.
		select {
		case payload := <-ch:
			return payload, nil
		default:
		}
		return nil, fmt.Errorf("recv from rank %d: %w", from, ps.reason)
	case <-m.closedCh:
		// Same drain preference on teardown: a queued message beats ErrClosed.
		select {
		case payload := <-ch:
			return payload, nil
		default:
		}
		return nil, ErrClosed
	case <-timeC:
		return nil, fmt.Errorf("%w: nothing from rank %d under tag %d within %v",
			ErrTimeout, from, tag, time.Duration(m.timeoutNS.Load()))
	}
}

// closeAll tears the set down, unblocking receivers with ErrClosed and
// blocked senders with a drop. The mailbox channels themselves are never
// closed — see closedCh.
func (m *mailboxSet) closeAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.boxes == nil {
		return
	}
	m.boxes = nil
	m.peers = nil
	close(m.closedCh)
}

// World is a set of N in-process ranks wired all-to-all.
//
// Create it once, hand each worker goroutine its Transport, and close it when
// the job ends. Messages are delivered per (sender, tag) in FIFO order, the
// same guarantee MPI offers for matching (source, tag) envelopes.
type World struct {
	size   int
	ranks  []*rank
	closed atomic.Bool
}

type rank struct {
	world *World
	id    int
	mail  *mailboxSet
	// left latches the first Leave so later calls of a failure cascade
	// cannot re-mark a readmitted rank down with a stale reason.
	left atomic.Bool
}

// NewWorld creates a fully connected in-process world of n ranks.
func NewWorld(n int) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("comm: world size must be positive, got %d", n)
	}
	w := &World{size: n, ranks: make([]*rank, n)}
	for i := range w.ranks {
		w.ranks[i] = &rank{world: w, id: i, mail: newMailboxSet()}
	}
	return w, nil
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Rank returns the transport endpoint for rank i.
func (w *World) Rank(i int) Transport {
	return w.ranks[i]
}

// Close tears the world down. Subsequent Sends fail with ErrClosed; Recvs on
// never-to-arrive messages would otherwise block forever, so Close also
// unblocks them with ErrClosed by closing every existing mailbox.
func (w *World) Close() {
	if w.closed.Swap(true) {
		return
	}
	for _, r := range w.ranks {
		r.mail.closeAll()
	}
}

// SetRecvTimeout bounds every rank's blocking receives; zero disables.
func (w *World) SetRecvTimeout(d time.Duration) {
	for _, r := range w.ranks {
		r.mail.setTimeout(d)
	}
}

// Readmit clears `peer`'s down markers in every other rank's mailboxes and
// re-arms its Leave latch — the world-level readmission of a recovered rank.
// The caller owns the protocol above it: readmit between steps, then barrier
// before the readmitted rank's traffic resumes.
func (w *World) Readmit(peer int) {
	if peer < 0 || peer >= w.size {
		return
	}
	w.ranks[peer].left.Store(false)
	for i, r := range w.ranks {
		if i == peer {
			continue
		}
		r.mail.readmit(peer)
	}
}

// markPeerDown records `peer` as dead (for the given reason) in every other
// rank's mailboxes, waking their blocked receives with ErrPeerDown.
func (w *World) markPeerDown(peer int, reason error) {
	if peer < 0 || peer >= w.size {
		return
	}
	for i, r := range w.ranks {
		if i == peer {
			continue
		}
		r.mail.markDown(peer, reason)
	}
}

func (r *rank) Rank() int { return r.id }
func (r *rank) Size() int { return r.world.size }

func (r *rank) Send(to, tag int, payload any) error {
	if r.world.closed.Load() {
		return ErrClosed
	}
	if to < 0 || to >= r.world.size {
		return fmt.Errorf("%w: send to %d in world of %d", ErrRank, to, r.world.size)
	}
	if err := checkPayload(payload); err != nil {
		return err
	}
	if !r.world.ranks[to].mail.deliver(r.id, tag, payload) {
		return ErrClosed
	}
	return nil
}

func (r *rank) Recv(from, tag int) (any, error) {
	if from < 0 || from >= r.world.size {
		return nil, fmt.Errorf("%w: recv from %d in world of %d", ErrRank, from, r.world.size)
	}
	return r.mail.receive(from, tag)
}

// SetRecvTimeout implements TimeoutSetter for this rank alone.
func (r *rank) SetRecvTimeout(d time.Duration) { r.mail.setTimeout(d) }

// Leave implements Leaver: it marks this rank down for every peer, so their
// blocked receives fail fast with ErrPeerDown instead of deadlocking on a
// participant that has abandoned the protocol. Only the first call acts;
// repeats (common during a failure cascade, where a rank's own Leave races
// peers' death notices) are no-ops, so a rank readmitted after recovery is
// not re-marked down by a stale second Leave.
func (r *rank) Leave(reason error) {
	if r.left.Swap(true) {
		return
	}
	r.world.markPeerDown(r.id, fmt.Errorf("rank %d left the world: %v", r.id, reason))
}

// Readmit implements Readmitter for this rank's receive side alone: clears
// the local down marker for `peer`, so this rank's receives from it block
// normally again.
func (r *rank) Readmit(peer int) { r.mail.readmit(peer) }

// RunRanks runs fn concurrently on every rank of a fresh world of size n and
// waits for all to finish, returning the joined per-rank errors. It is the
// harness of the collectives tests and of the Figure-1 traffic measurement.
func RunRanks(n int, fn func(t Transport) error) error {
	w, err := NewWorld(n)
	if err != nil {
		return err
	}
	defer w.Close()
	return runEach(n, w.Rank, fn)
}

// runEach runs fn on ranks 0..n-1 of one world concurrently and joins their
// errors: the fan-out of RunRanks, RunRanksChaos and RunRanksTCP.
func runEach(n int, rank func(int) Transport, fn func(t Transport) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(rank(i))
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
