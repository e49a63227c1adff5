package collective

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"embrace/internal/comm"
	"embrace/internal/tensor"
)

// Communicator is a per-rank stateful endpoint for collective operations:
// the architectural move Horovod-style frameworks converged on once per-call
// tagging and per-call buffer allocation stopped scaling. It owns three
// concerns the free functions used to push onto every caller:
//
//   - Ordered op streams. Every collective is addressed by a logical
//     operation name plus a step number. The op name alone picks the
//     transport tag (a stable hash, so all ranks agree without negotiation
//     and concurrent goroutines cannot desynchronize registration); the
//     step rides in every frame as a check. Successive calls of one op are
//     matched by issue order on one (peer, op) stream, the way MPI and NCCL
//     match collectives on a communicator, so per-rank state is bounded by
//     the number of ops, not steps.
//
//   - Chunked pipelining. Dense ring operations split each ring chunk into
//     ChunkBytes-sized segments and keep one segment in flight ahead of the
//     reduction, so the transfer of segment k+1 overlaps the combine of
//     segment k. The default (ChunkBytes == 0) sends each ring chunk as one
//     message. Segmentation splits element ranges, never the per-element
//     summation order, so results are bit-identical for every chunk size.
//
//   - Buffer pooling. Scratch buffers for ring sends are drawn from an
//     internal pool and recycled when the received copy has been folded
//     into the destination, eliminating the per-send make([]float32, ...) of
//     the free-function paths. Ownership transfers with the message: the
//     receiving rank returns the buffer to its own pool.
//
// A Communicator is safe for concurrent use by one rank's goroutines as long
// as concurrent collectives use distinct op names, the same discipline MPI
// communicators require. All ranks of a world must issue the same logical
// operations with the same steps in the same order — the SPMD contract every
// collective already has; a frame whose step differs from the one its
// receiver issued fails with ErrStepMismatch instead of being misdelivered.
type Communicator struct {
	t          comm.Transport
	chunkElems int
	epoch      int // world epoch; offsets every tag into its own plane
	obs        Observer
	faults     FaultObserver // c.obs, when it also counts faults

	mu      sync.Mutex
	ops     map[string]int64 // op name -> slot in the tag space
	byIndex map[int64]string // slot -> op name, for collision detection

	streamMu sync.Mutex
	sends    map[streamKey]*sendStream
	recvs    map[streamKey]*recvStream

	f32 bufPool[float32] // ring segments and sparse value streams
	i64 bufPool[int64]   // sparse stream headers with their indices
}

// ErrStepMismatch is returned by a receive whose next in-order frame on its
// (peer, op) stream was sent for a different step than the receiver issued:
// the ranks' collective schedules have diverged.
var ErrStepMismatch = errors.New("collective: step mismatch")

// Observer receives per-logical-operation traffic notifications from a
// Communicator. metrics.OpRecorder implements it; the indirection keeps
// collective free of a metrics dependency.
type Observer interface {
	// Sent is called after each successful point-to-point send of op.
	Sent(op string, payload any, blocked time.Duration)
	// Received is called after each point-to-point receive; blocked is the
	// time spent waiting, the real-mode analogue of communication stall.
	Received(op string, payload any, blocked time.Duration)
}

// FaultObserver is the optional extension of Observer for fault accounting.
// When the installed Observer also implements it, the Communicator reports
// every communication fault it sees: masked faults (duplicates dropped,
// reordered frames buffered, transient send failures retried away) and fatal
// ones (dead peers, timeouts, exhausted retry budgets). metrics.OpRecorder
// implements it.
type FaultObserver interface {
	// Fault is called once per fault event on op; masked reports whether the
	// Communicator absorbed it (true) or surfaced an error (false). kind is
	// one of "duplicate", "reorder", "transient", "peer-down", "timeout".
	Fault(op string, kind string, masked bool)
}

// Tag-space layout: tags are epoch<<epochShift + tagBase + opSlot. The base
// keeps Communicator tags above the small literal tags raw-transport code
// and tests use (all below 1<<32); the world-epoch bits (zero by default)
// give each rebuild of a world its own disjoint tag plane. Requires 64-bit
// ints (every supported platform).
const (
	opSlots = 1 << 30
	tagBase = 1 << 32
	// epochShift places the world-epoch bits above the whole epoch-0 tag
	// space (tagBase + opSlots < 1<<33).
	epochShift = 33
	// MaxEpoch is the largest world epoch a tag can encode while keeping
	// the tag a positive int64. Elastic training consumes one epoch per
	// world rebuild, so the bound is unreachable in practice.
	MaxEpoch = 1<<(63-epochShift) - 1
)

// Option configures a Communicator.
type Option func(*Communicator)

// WithChunkBytes sets the pipelining segment size for dense ring operations.
// Zero or negative sends each ring chunk as one message.
func WithChunkBytes(n int) Option {
	return func(c *Communicator) {
		if n > 0 {
			c.chunkElems = max(1, n/tensor.BytesPerElem)
		} else {
			c.chunkElems = 0
		}
	}
}

// WithObserver installs a per-operation traffic observer.
func WithObserver(o Observer) Option {
	return func(c *Communicator) { c.obs = o }
}

// WithEpoch places every tag the Communicator allocates in world-epoch e's
// tag plane. Epochs partition the tag space: a Communicator of epoch e+1
// can never receive a frame addressed by an epoch-e Communicator, so after
// an elastic world rebuild the stale in-flight frames of the dead world —
// delayed deliveries, a leaked background exchange's sends — are simply
// never matched, instead of corrupting the rebuilt collectives' sequence
// streams. Epoch 0 is the default, and the plane TagOf addresses.
func WithEpoch(e int) Option {
	return func(c *Communicator) { c.epoch = e }
}

// NewCommunicator creates the rank-local collective endpoint over t.
func NewCommunicator(t comm.Transport, opts ...Option) *Communicator {
	c := &Communicator{
		t:     t,
		sends: make(map[streamKey]*sendStream),
		recvs: make(map[streamKey]*recvStream),
		f32:   bufPool[float32]{poison: poisonF32},
		i64:   bufPool[int64]{poison: poisonI64},
	}
	for _, o := range opts {
		o(c)
	}
	c.faults, _ = c.obs.(FaultObserver)
	return c
}

// Rank returns this participant's rank in [0, Size).
func (c *Communicator) Rank() int { return c.t.Rank() }

// Leave announces that this rank has abandoned the world's collective
// schedule, so peers blocked on it fail fast with comm.ErrPeerDown instead of
// waiting on a protocol it will never finish (comm.Leaver). A no-op on
// transports that cannot announce a departure.
func (c *Communicator) Leave(reason error) {
	if l, ok := c.t.(comm.Leaver); ok {
		l.Leave(reason)
	}
}

// Size returns the world size.
func (c *Communicator) Size() int { return c.t.Size() }

// opIndex resolves (registering on first use) the op's slot in the tag
// space. The slot is a pure function of the name, so registration order —
// and therefore goroutine interleaving — cannot desynchronize ranks.
func (c *Communicator) opIndex(op string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if idx, ok := c.ops[op]; ok {
		return idx, nil
	}
	idx := opSlot(op)
	if prev, ok := c.byIndex[idx]; ok && prev != op {
		return 0, fmt.Errorf("collective: op %q collides with %q in the tag space; rename one", op, prev)
	}
	if c.ops == nil {
		c.ops = make(map[string]int64)
		c.byIndex = make(map[int64]string)
	}
	c.ops[op] = idx
	c.byIndex[idx] = op
	return idx, nil
}

// Tag returns the transport tag of op in this Communicator's epoch plane.
// Distinct op names map to distinct tags; an unresolvable hash collision
// between op names is reported as an error (astronomically unlikely with a
// 2^30 slot space).
func (c *Communicator) Tag(op string) (int, error) {
	if c.epoch < 0 || c.epoch > MaxEpoch {
		return 0, fmt.Errorf("collective: world epoch %d outside [0, %d]", c.epoch, MaxEpoch)
	}
	idx, err := c.opIndex(op)
	if err != nil {
		return 0, err
	}
	return c.epoch<<epochShift + tagBase + int(idx), nil
}

// TagOf computes the epoch-0 transport tag of op without a Communicator —
// the targeting hook chaos plans use to aim a fault at one collective (a
// FaultRule.Match on FaultPoint.Tag, with FaultPoint.Step picking the
// training step). It is the same pure function of the op name every
// Communicator resolves, minus the cross-op collision registry, so it must
// only feed predicates, never tag allocation.
func TagOf(op string) int { return tagBase + int(opSlot(op)) }

// opSlot is the stable hash placing an op name in the tag space.
func opSlot(op string) int64 {
	h := fnv.New64a()
	h.Write([]byte(op))
	return int64(h.Sum64() % opSlots)
}

// Ops returns the op names registered so far, sorted.
func (c *Communicator) Ops() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.ops))
	for op := range c.ops {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Pooled scratch buffers.
// ---------------------------------------------------------------------------

// bufPool recycles scratch slices of T. Ownership travels with the message:
// a buffer one rank's pool handed out is typically put back by the receiving
// rank into its own pool once its contents have been consumed. The container
// pointer is parked in spares so put can return received buffers without
// allocating a new header.
//
// In test binaries put first fills the buffer's whole capacity with poison,
// so a read of a recycled buffer sees NaN or sentinel bits, which the
// bit-identity suites reject, instead of plausible stale data.
type bufPool[T any] struct {
	full   sync.Pool // *[]T holding scratch data
	spares sync.Pool // *[]T holding empty containers
	poison T
}

// Poison values of recycled memory in test binaries: a NaN for values and a
// negative row id for indices.
var (
	poisonRecycled = testing.Testing()
	poisonF32      = math.Float32frombits(0x7fc0dead)
	poisonI64      = int64(math.MinInt64 + 0xdead)
)

// get returns a scratch buffer of length n, reusing pooled memory.
func (p *bufPool[T]) get(n int) []T {
	v, _ := p.full.Get().(*[]T)
	if v == nil {
		v = new([]T)
	}
	buf := *v
	*v = nil
	p.spares.Put(v)
	if cap(buf) < n {
		buf = make([]T, n)
	}
	return buf[:n]
}

// put recycles a buffer whose contents have been fully consumed.
func (p *bufPool[T]) put(buf []T) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:cap(buf)]
	if poisonRecycled {
		fill(buf, p.poison)
	}
	v, _ := p.spares.Get().(*[]T)
	if v == nil {
		v = new([]T)
	}
	*v = buf
	p.full.Put(v)
}

// fill sets every element of buf to v.
func fill[T any](buf []T, v T) {
	for i := range buf {
		buf[i] = v
	}
}

// ---------------------------------------------------------------------------
// Instrumented, self-healing point-to-point.
//
// Every message a Communicator sends is wrapped in a comm.SeqFrame carrying a
// per-(peer, tag) sequence number and the step the sender issued. The
// receiver uses the sequence number to drop duplicated frames and to buffer
// frames that arrive ahead of their turn, so a fabric that duplicates, delays
// or reorders within a stream (comm.WrapChaos, or a real retransmitting
// network) still yields bit-identical collective results; it checks the step
// of each in-order frame against its own. Transient send failures
// (comm.ErrTransient) are retried with exponential backoff up to
// sendAttempts; everything else surfaces immediately with the op name
// attached.
// ---------------------------------------------------------------------------

const (
	// sendAttempts bounds the retry loop for transient send failures. The
	// chaos transport guarantees bursts no longer than its MaxBurst (default
	// 3) followed by a guaranteed-good send, so this budget masks every
	// transient plan it can generate.
	sendAttempts = 8
	// retryBackoff is the initial sleep between attempts; it doubles each try.
	retryBackoff = 100 * time.Microsecond
)

// route is one issued collective as its frames see it: the op name (for
// errors and observers), the op's tag, and the step every frame carries.
type route struct {
	op   string
	tag  int
	step int
}

// routeOf resolves the route of (op, step).
func (c *Communicator) routeOf(op string, step int) (route, error) {
	tag, err := c.Tag(op)
	return route{op: op, tag: tag, step: step}, err
}

// streamKey identifies one directed per-tag message stream.
type streamKey struct{ peer, tag int }

// sendStream numbers outgoing frames.
type sendStream struct {
	mu   sync.Mutex
	next int64
}

// recvStream tracks the next expected frame and parks early arrivals.
type recvStream struct {
	mu   sync.Mutex
	next int64
	held map[int64]comm.SeqFrame // frames that arrived ahead of turn, by Seq
}

// streamOf returns (creating on first use) the stream of k in m.
func streamOf[S any](mu *sync.Mutex, m map[streamKey]*S, k streamKey) *S {
	mu.Lock()
	defer mu.Unlock()
	s, ok := m[k]
	if !ok {
		s = new(S)
		m[k] = s
	}
	return s
}

// fault reports a fault event to the observer, when it cares.
func (c *Communicator) fault(op, kind string, masked bool) {
	if c.faults != nil {
		c.faults.Fault(op, kind, masked)
	}
}

// faultKindOf classifies a transport error for fault accounting.
func faultKindOf(err error) string {
	switch {
	case errors.Is(err, comm.ErrPeerDown):
		return "peer-down"
	case errors.Is(err, comm.ErrTimeout):
		return "timeout"
	case errors.Is(err, comm.ErrTransient):
		return "transient"
	default:
		return ""
	}
}

func (c *Communicator) sendRaw(rt route, to int, payload any) error {
	ss := streamOf(&c.streamMu, c.sends, streamKey{to, rt.tag})
	ss.mu.Lock()
	seq := ss.next
	ss.next++
	ss.mu.Unlock()
	frame := comm.SeqFrame{Seq: seq, Step: rt.step, Payload: payload}
	op := rt.op

	backoff := retryBackoff
	for attempt := 1; ; attempt++ {
		start := time.Now()
		err := c.t.Send(to, rt.tag, frame)
		if err == nil {
			// The observer sees the inner payload, not the frame, so byte
			// accounting matches what the caller handed over. A failed
			// attempt is not traffic; it reaches the observer through fault.
			if c.obs != nil {
				c.obs.Sent(op, payload, time.Since(start))
			}
			return nil
		}
		if !errors.Is(err, comm.ErrTransient) {
			if kind := faultKindOf(err); kind != "" {
				c.fault(op, kind, false)
			}
			return fmt.Errorf("collective: %s send to rank %d: %w", op, to, err)
		}
		if attempt >= sendAttempts {
			c.fault(op, "transient", false)
			return fmt.Errorf("collective: %s send to rank %d: %d attempts exhausted: %w", op, to, attempt, err)
		}
		c.fault(op, "transient", true)
		time.Sleep(backoff)
		backoff *= 2
	}
}

// recvRaw returns the next in-order payload of the (from, tag) stream,
// absorbing duplicated and early frames, and fails with ErrStepMismatch when
// that frame was sent for another step. Unframed payloads (from peers not
// using a Communicator) pass through untouched.
func (c *Communicator) recvRaw(rt route, from int) (any, error) {
	op := rt.op
	rs := streamOf(&c.streamMu, c.recvs, streamKey{from, rt.tag})
	for {
		rs.mu.Lock()
		if f, ok := rs.held[rs.next]; ok {
			delete(rs.held, rs.next)
			rs.next++
			rs.mu.Unlock()
			return rt.check(from, f)
		}
		rs.mu.Unlock()

		// The transport call happens with no lock held: a blocked receive
		// must never pin stream state.
		start := time.Now()
		payload, err := c.t.Recv(from, rt.tag)
		f, framed := payload.(comm.SeqFrame)
		if c.obs != nil {
			inner := payload
			if framed {
				inner = f.Payload
			}
			c.obs.Received(op, inner, time.Since(start))
		}
		if err != nil {
			if kind := faultKindOf(err); kind != "" {
				c.fault(op, kind, false)
			}
			return nil, fmt.Errorf("collective: %s recv from rank %d: %w", op, from, err)
		}
		if !framed {
			return payload, nil
		}

		rs.mu.Lock()
		switch {
		case f.Seq < rs.next:
			// Already delivered: a duplicated frame. Drop it.
			rs.mu.Unlock()
			c.fault(op, "duplicate", true)
		case f.Seq > rs.next:
			// Ahead of turn: park it and keep receiving.
			if rs.held == nil {
				rs.held = make(map[int64]comm.SeqFrame)
			}
			rs.held[f.Seq] = f
			rs.mu.Unlock()
			c.fault(op, "reorder", true)
		default:
			rs.next++
			rs.mu.Unlock()
			return rt.check(from, f)
		}
	}
}

// check returns the payload of the in-order frame f, or ErrStepMismatch when
// the sender issued it for another step than rt's.
func (rt route) check(from int, f comm.SeqFrame) (any, error) {
	if f.Step != rt.step {
		return nil, fmt.Errorf("%w: %s from rank %d carries step %d, receiver is at step %d",
			ErrStepMismatch, rt.op, from, f.Step, rt.step)
	}
	return f.Payload, nil
}

// Send delivers payload to rank `to` on op's stream, stamped with step — the
// point-to-point escape hatch for protocols (like serving's control plane)
// that need raw messaging inside a Communicator-allocated tag range.
func (c *Communicator) Send(op string, step, to int, payload any) error {
	rt, err := c.routeOf(op, step)
	if err != nil {
		return err
	}
	return c.sendRaw(rt, to, payload)
}

// Recv blocks until rank `from`'s next message on op's stream arrives; it
// fails with ErrStepMismatch if that message was sent for another step.
func (c *Communicator) Recv(op string, step, from int) (any, error) {
	rt, err := c.routeOf(op, step)
	if err != nil {
		return nil, err
	}
	return c.recvRaw(rt, from)
}

// ---------------------------------------------------------------------------
// Dense ring collectives: chunked, pipelined, pooled.
// ---------------------------------------------------------------------------

// segCount returns the number of pipelined segments an n-element ring chunk
// is split into. Always at least one, so sender and receiver exchange a
// message even for empty chunks.
func (c *Communicator) segCount(n int) int {
	if c.chunkElems <= 0 || n <= c.chunkElems {
		return 1
	}
	return (n + c.chunkElems - 1) / c.chunkElems
}

// hopStream reads ring chunk `chunk` of every block, back to back, as one
// stream, so a hop's segments can straddle block boundaries. Each block is
// split into `parts` chunks on its own, exactly as when it travels alone.
type hopStream struct {
	bufs         [][]float32
	parts, chunk int
	i, off       int // next element: offset off into block i's chunk
}

// len returns the stream's total element count.
func (h *hopStream) len() int {
	n := 0
	for _, buf := range h.bufs {
		lo, hi := chunkBounds(len(buf), h.parts, h.chunk)
		n += hi - lo
	}
	return n
}

// walk pairs the stream's next len(seg) elements with seg and calls f once
// per run that lies inside one block.
func (h *hopStream) walk(seg []float32, f func(part, seg []float32)) {
	for len(seg) > 0 {
		lo, hi := chunkBounds(len(h.bufs[h.i]), h.parts, h.chunk)
		part := h.bufs[h.i][lo+h.off : hi]
		if len(part) == 0 {
			h.i++
			h.off = 0
			continue
		}
		if len(part) > len(seg) {
			part = part[:len(seg)]
		}
		f(part, seg[:len(part)])
		h.off += len(part)
		seg = seg[len(part):]
	}
}

// ringExchange performs one ring hop for every block of bufs at once: it
// streams chunk sendChunk of each block to `right` while receiving chunk
// recvChunk of each from `left`, both as one stream split into pipelined
// segments. Segment k+1 is on the wire before segment k is combined, so
// transfer overlaps reduction. combine folds each received run into the
// block chunk it belongs to.
func (c *Communicator) ringExchange(rt route, right, left int, bufs [][]float32, sendChunk, recvChunk int, combine func(dst, src []float32)) error {
	out := hopStream{bufs: bufs, parts: c.t.Size(), chunk: sendChunk}
	into := hopStream{bufs: bufs, parts: c.t.Size(), chunk: recvChunk}
	sendLen, recvLen := out.len(), into.len()
	ss := c.segCount(sendLen)
	rs := c.segCount(recvLen)
	sent := 0
	sendSeg := func() error {
		a, b := chunkBounds(sendLen, ss, sent)
		seg := c.f32.get(b - a)
		out.walk(seg, func(part, seg []float32) { copy(seg, part) })
		sent++
		return c.sendRaw(rt, right, seg)
	}
	// Prime the pipeline before blocking on the first receive.
	if err := sendSeg(); err != nil {
		return fmt.Errorf("ring send: %w", err)
	}
	for k := 0; k < rs; k++ {
		if sent < ss {
			if err := sendSeg(); err != nil {
				return fmt.Errorf("ring send: %w", err)
			}
		}
		payload, err := c.recvRaw(rt, left)
		if err != nil {
			return fmt.Errorf("ring recv: %w", err)
		}
		in, ok := payload.([]float32)
		if !ok {
			return fmt.Errorf("collective: %s: unexpected payload %T", rt.op, payload)
		}
		a, b := chunkBounds(recvLen, rs, k)
		if len(in) != b-a {
			return fmt.Errorf("collective: %s: segment size %d != %d", rt.op, len(in), b-a)
		}
		into.walk(in, combine)
		c.f32.put(in)
	}
	for sent < ss {
		if err := sendSeg(); err != nil {
			return fmt.Errorf("ring send: %w", err)
		}
	}
	return nil
}

// ringPhase runs the N-1 hops of one ring phase over every block of bufs
// on one route. Each block keeps its own N-way chunk layout, so an
// element is combined in the same rank order whether its block travels alone
// or with others. At hop s the rank sends chunk (rank-s-1+shift) mod N and
// receives the one before it: shift 0 is reduce-scatter, after which chunk
// `rank` of every block holds the reduction across all ranks; shift 1 is the
// allgather that follows it.
func (c *Communicator) ringPhase(rt route, phase string, bufs [][]float32, shift int, combine func(dst, src []float32)) error {
	n, r := c.t.Size(), c.t.Rank()
	right := (r + 1) % n
	left := (r - 1 + n) % n
	for s := 0; s < n-1; s++ {
		sendChunk := ((r-s-1+shift)%n + n) % n
		recvChunk := (sendChunk - 1 + n) % n
		if err := c.ringExchange(rt, right, left, bufs, sendChunk, recvChunk, combine); err != nil {
			return fmt.Errorf("%s step %d: %w", phase, s, err)
		}
	}
	return nil
}

// AllReduce sums buf element-wise across all ranks in place with the
// bandwidth-optimal ring algorithm, chunk-pipelined per the Communicator's
// ChunkBytes and drawing scratch buffers from the pool.
func (c *Communicator) AllReduce(op string, step int, buf []float32) error {
	return c.AllReduceBlocks(op, step, buf)
}

// AllReduceBlocks sums every block of bufs element-wise across all ranks in
// place, in one ring pass: each hop carries every block's chunk back to back
// in one message stream, so k blocks cost the 2(N-1) hops of one. The result
// is bit-identical to AllReduce on each block separately. All ranks must pass
// blocks of the same lengths in the same order.
func (c *Communicator) AllReduceBlocks(op string, step int, bufs ...[]float32) error {
	if err := c.ReduceScatterBlocks(op, step, bufs...); err != nil {
		return err
	}
	return c.AllGatherBlocks(op, step, bufs...)
}

// ReduceScatterBlocks is the first half of AllReduceBlocks: afterwards this
// rank's chunk of every block (ChunkOf) holds the sum across all ranks, in the
// same bits AllReduceBlocks would leave there, and the rest of each block
// holds partial sums.
func (c *Communicator) ReduceScatterBlocks(op string, step int, bufs ...[]float32) error {
	rt, err := c.routeOf(op, step)
	if err != nil {
		return err
	}
	return c.ringPhase(rt, "reduce-scatter", bufs, 0, add)
}

// AllGatherBlocks is the second half of AllReduceBlocks: every rank's chunk
// of every block is copied to every other rank. Issued on the op of the
// ReduceScatterBlocks before it, it costs exactly the rest of that
// AllReduceBlocks; the blocks it gathers need not be the ones that were
// reduced, only of the same lengths — a ring-sharded optimizer gathers the
// parameters it updated from the gradients.
func (c *Communicator) AllGatherBlocks(op string, step int, bufs ...[]float32) error {
	rt, err := c.routeOf(op, step)
	if err != nil {
		return err
	}
	return c.ringPhase(rt, "allgather", bufs, 1, func(dst, src []float32) { copy(dst, src) })
}

// ChunkOf returns the [lo, hi) range of an n-element block that this rank
// owns between ReduceScatterBlocks and AllGatherBlocks. It is empty when the
// block is shorter than the world.
func (c *Communicator) ChunkOf(n int) (lo, hi int) {
	return chunkBounds(n, c.t.Size(), c.t.Rank())
}

// add folds src into dst element-wise: the ring's reduction.
func add(dst, src []float32) {
	for i, v := range src {
		dst[i] += v
	}
}

// Barrier blocks until every rank has entered it.
func (c *Communicator) Barrier(op string, step int) error {
	rt, err := c.routeOf(op, step)
	if err != nil {
		return err
	}
	n := c.t.Size()
	if n == 1 {
		return nil
	}
	if c.t.Rank() == 0 {
		for p := 1; p < n; p++ {
			if _, err := c.recvRaw(rt, p); err != nil {
				return fmt.Errorf("barrier fan-in: %w", err)
			}
		}
		for p := 1; p < n; p++ {
			if err := c.sendRaw(rt, p, struct{}{}); err != nil {
				return fmt.Errorf("barrier fan-out: %w", err)
			}
		}
		return nil
	}
	if err := c.sendRaw(rt, 0, struct{}{}); err != nil {
		return fmt.Errorf("barrier fan-in: %w", err)
	}
	if _, err := c.recvRaw(rt, 0); err != nil {
		return fmt.Errorf("barrier fan-out: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Generic exchanges. Methods cannot be generic in Go, so these are package
// functions taking the Communicator first.
// ---------------------------------------------------------------------------

// AllGatherVia collects one value from every rank under (op, step) and
// returns them indexed by rank.
func AllGatherVia[T any](c *Communicator, op string, step int, local T) ([]T, error) {
	rt, err := c.routeOf(op, step)
	if err != nil {
		return nil, err
	}
	n, r := c.t.Size(), c.t.Rank()
	out := make([]T, n)
	out[r] = local
	for p := 0; p < n; p++ {
		if p == r {
			continue
		}
		if err := c.sendRaw(rt, p, local); err != nil {
			return nil, fmt.Errorf("allgather send to %d: %w", p, err)
		}
	}
	for p := 0; p < n; p++ {
		if p == r {
			continue
		}
		payload, err := c.recvRaw(rt, p)
		if err != nil {
			return nil, fmt.Errorf("allgather recv from %d: %w", p, err)
		}
		v, ok := payload.(T)
		if !ok {
			return nil, fmt.Errorf("collective: allgather type %T from rank %d", payload, p)
		}
		out[p] = v
	}
	return out, nil
}

// AllToAllVia sends send[p] to rank p under (op, step) and returns the
// received values indexed by sender.
func AllToAllVia[T any](c *Communicator, op string, step int, send []T) ([]T, error) {
	rt, err := c.routeOf(op, step)
	if err != nil {
		return nil, err
	}
	n, r := c.t.Size(), c.t.Rank()
	if len(send) != n {
		return nil, fmt.Errorf("collective: alltoall wants %d send parts, got %d", n, len(send))
	}
	out := make([]T, n)
	out[r] = send[r]
	for p := 0; p < n; p++ {
		if p == r {
			continue
		}
		if err := c.sendRaw(rt, p, send[p]); err != nil {
			return nil, fmt.Errorf("alltoall send to %d: %w", p, err)
		}
	}
	for p := 0; p < n; p++ {
		if p == r {
			continue
		}
		payload, err := c.recvRaw(rt, p)
		if err != nil {
			return nil, fmt.Errorf("alltoall recv from %d: %w", p, err)
		}
		v, ok := payload.(T)
		if !ok {
			return nil, fmt.Errorf("collective: alltoall type %T from rank %d", payload, p)
		}
		out[p] = v
	}
	return out, nil
}

// GatherVia collects one value from every rank at root under (op, step);
// non-root ranks receive a nil slice.
func GatherVia[T any](c *Communicator, op string, step, root int, local T) ([]T, error) {
	rt, err := c.routeOf(op, step)
	if err != nil {
		return nil, err
	}
	n, r := c.t.Size(), c.t.Rank()
	if r != root {
		if err := c.sendRaw(rt, root, local); err != nil {
			return nil, fmt.Errorf("gather send: %w", err)
		}
		return nil, nil
	}
	out := make([]T, n)
	out[r] = local
	for p := 0; p < n; p++ {
		if p == r {
			continue
		}
		payload, err := c.recvRaw(rt, p)
		if err != nil {
			return nil, fmt.Errorf("gather recv from %d: %w", p, err)
		}
		v, ok := payload.(T)
		if !ok {
			return nil, fmt.Errorf("collective: gather type %T from rank %d", payload, p)
		}
		out[p] = v
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Sparse collectives.
// ---------------------------------------------------------------------------

// SparseAllGather aggregates a row-sparse gradient: every rank contributes
// its local sparse tensor and receives the concatenation of all of them in
// rank order. It is AlltoAllSparse with local sent to every peer, into a
// call-local arena, so the result is the caller's to keep. Every sender must
// share local's width, and every row must lie inside local's NumRows (the
// exchange checks the rows).
func (c *Communicator) SparseAllGather(op string, step int, local *tensor.Sparse) (*tensor.Sparse, error) {
	send := make([]*tensor.Sparse, c.t.Size())
	for p := range send {
		send[p] = local
	}
	var arena SparseShards
	if err := c.AlltoAllSparse(op, step, send, &arena); err != nil {
		return nil, err
	}
	for p, d := range arena.dims {
		if int(d) != local.Dim {
			return nil, fmt.Errorf("collective: sparse allgather: rank %d sent width %d, want %d", p, d, local.Dim)
		}
	}
	return arena.Merged(), nil
}
