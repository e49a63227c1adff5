// Deterministic fault injection: a Transport wrapper that perturbs the
// message stream according to a seeded FaultPlan.
//
// The paper's training step is fully synchronous — one lost AlltoAll message
// stalls all N ranks — yet the clean transports in this package never fail.
// The chaos transport closes that gap for tests: it injects message delay,
// duplication, reordering, transient send failures, link partitions and full
// rank crashes, each drawn from a *seeded* generator so a failing run replays
// exactly from its seed. Faults are decided per (sender, receiver, tag)
// stream with a generator derived from (plan seed, stream identity), which
// keeps the injected sequence independent of goroutine interleaving across
// streams: the property suites in internal/collective rely on that to assert
// bit-identical results under every plan.
//
// Fault scheduling never reads the wall clock or the process-global rand
// (the determinism analyzer enforces this for the whole package); timers
// appear only to bound how long an already-decided delay or reorder holds a
// message.
package comm

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// FaultKind enumerates the injectable fault classes.
type FaultKind int

const (
	// FaultDelay delivers the message late (bounded by the rule's MaxDelay)
	// instead of immediately. Maskable: sequence numbers restore order.
	FaultDelay FaultKind = iota
	// FaultDuplicate delivers the message twice. Maskable: the receiver
	// drops the second copy by sequence number.
	FaultDuplicate
	// FaultReorder holds the message and releases it after the stream's next
	// message (or a short timer when no successor comes). Maskable.
	FaultReorder
	// FaultTransientSend fails the send with ErrTransient without delivering;
	// a short burst of consecutive attempts fails too. Maskable by bounded
	// retry — the burst never exceeds the rule's MaxBurst.
	FaultTransientSend
	// FaultPartition fails matching sends with ErrPeerDown: the link between
	// the two ranks is cut. Not maskable; surfaces as a typed error.
	FaultPartition
	// FaultCrash kills the sending rank: this and every later operation it
	// attempts fails, and (in a ChaosWorld) every peer's blocked receive on
	// it returns ErrPeerDown. Not maskable.
	FaultCrash

	numFaultKinds
)

// String names the fault kind for stats maps and error messages.
func (k FaultKind) String() string {
	switch k {
	case FaultDelay:
		return "delay"
	case FaultDuplicate:
		return "duplicate"
	case FaultReorder:
		return "reorder"
	case FaultTransientSend:
		return "transient-send"
	case FaultPartition:
		return "partition"
	case FaultCrash:
		return "crash"
	default:
		return fmt.Sprintf("faultkind(%d)", int(k))
	}
}

// AnyRank in a FaultRule's From or To matches every rank.
const AnyRank = -1

// FaultPoint identifies one send as seen by the fault injector: the message
// envelope, the send's ordinal within its (From, To, Tag) stream, and the
// step its SeqFrame carries. Rules target specific collectives through it —
// a Communicator tag is a pure function of the op name and the frame carries
// the step, so a predicate can match e.g. "the AlltoAll of step 3" by
// (Tag, Step).
type FaultPoint struct {
	From, To, Tag int
	// Index is the zero-based ordinal of this send within its stream.
	Index int64
	// Step is the payload's SeqFrame.Step, or -1 when the payload is not a
	// SeqFrame.
	Step int
}

// FaultRule arms one fault kind against a subset of the message stream.
// The zero value is inert; build rules with Rule and refine the fields.
type FaultRule struct {
	// Kind selects the fault class.
	Kind FaultKind
	// Rate is the firing probability per matching send, drawn from the
	// stream's seeded generator; values >= 1 always fire.
	Rate float64
	// From and To restrict the rule to one sender and/or receiver;
	// AnyRank (-1) matches all. Note the zero value pins rank 0 — use Rule.
	From, To int
	// MaxDelay bounds FaultDelay's injected latency; DefaultMaxDelay if zero.
	MaxDelay time.Duration
	// MaxBurst bounds FaultTransientSend's consecutive failed attempts;
	// DefaultMaxBurst if zero. Keep it below a resilient sender's retry
	// budget or the fault stops being maskable.
	MaxBurst int
	// Match further restricts the rule; nil matches every point.
	Match func(FaultPoint) bool
}

// Rule builds a FaultRule of the given kind and rate matching every rank
// pair; refine From/To/Match on the result to narrow it.
func Rule(kind FaultKind, rate float64) FaultRule {
	return FaultRule{Kind: kind, Rate: rate, From: AnyRank, To: AnyRank}
}

// matches reports whether the rule applies to the fault point.
func (r *FaultRule) matches(pt FaultPoint) bool {
	if r.From != AnyRank && r.From != pt.From {
		return false
	}
	if r.To != AnyRank && r.To != pt.To {
		return false
	}
	return r.Match == nil || r.Match(pt)
}

// Defaults for rule fields left zero.
const (
	// DefaultMaxDelay bounds injected message latency.
	DefaultMaxDelay = time.Millisecond
	// DefaultMaxBurst bounds consecutive transient send failures. The
	// Communicator's retry budget is deliberately larger.
	DefaultMaxBurst = 3
	// reorderFlush releases a held message when its stream never produces a
	// successor — liveness insurance, not a scheduling decision.
	reorderFlush = 2 * time.Millisecond
)

// FaultPlan is a seeded schedule of faults. The zero plan injects nothing
// and costs one branch per operation.
type FaultPlan struct {
	// Seed roots every stream's fault generator; the same plan and seed
	// reproduce the same faults at the same points (per stream).
	Seed int64
	// Rules are evaluated in order per send; the first rule that matches
	// and fires decides the send's fate (at most one fault per message).
	Rules []FaultRule
}

// Empty reports whether the plan can never inject a fault.
func (p FaultPlan) Empty() bool { return len(p.Rules) == 0 }

// validate rejects malformed plans before they produce confusing hangs.
func (p FaultPlan) validate(size int) error {
	for i, r := range p.Rules {
		if r.Kind < 0 || r.Kind >= numFaultKinds {
			return fmt.Errorf("comm: chaos rule %d: unknown fault kind %d", i, int(r.Kind))
		}
		if r.Rate < 0 {
			return fmt.Errorf("comm: chaos rule %d: negative rate %v", i, r.Rate)
		}
		for _, rk := range [2]int{r.From, r.To} {
			if rk != AnyRank && (rk < 0 || rk >= size) {
				return fmt.Errorf("comm: chaos rule %d: rank %d outside world of %d", i, rk, size)
			}
		}
		if r.MaxDelay < 0 || r.MaxBurst < 0 {
			return fmt.Errorf("comm: chaos rule %d: negative MaxDelay/MaxBurst", i)
		}
	}
	return nil
}

// MaskableChaosPlan is the standard all-pairs plan of every recoverable
// fault kind at moderate rates — the plan the chaos property suites sweep
// over seeds. Every fault it injects must be masked by a resilient sender
// and receiver (the Communicator), leaving results bit-identical.
func MaskableChaosPlan(seed int64) FaultPlan {
	return FaultPlan{
		Seed: seed,
		Rules: []FaultRule{
			Rule(FaultDelay, 0.08),
			Rule(FaultDuplicate, 0.08),
			Rule(FaultReorder, 0.08),
			Rule(FaultTransientSend, 0.08),
		},
	}
}

// ---------------------------------------------------------------------------
// Core shared state.
// ---------------------------------------------------------------------------

// chaosCore is the plan plus the cross-rank state one chaos domain shares:
// which ranks have crashed, how many faults of each kind were injected, and
// the WaitGroup that keeps Close leak-free by waiting out delayed deliveries
// and reorder flush timers.
type chaosCore struct {
	plan  FaultPlan
	world *World // non-nil only for NewChaosWorld: enables crash fan-out
	empty bool

	crashed  []atomic.Bool
	injected [numFaultKinds]atomic.Int64
	wg       sync.WaitGroup
}

func newChaosCore(plan FaultPlan, size int, w *World) *chaosCore {
	return &chaosCore{
		plan:    plan,
		world:   w,
		empty:   plan.Empty(),
		crashed: make([]atomic.Bool, size),
	}
}

func (c *chaosCore) count(k FaultKind) { c.injected[k].Add(1) }

func (c *chaosCore) isCrashed(rank int) bool {
	return rank >= 0 && rank < len(c.crashed) && c.crashed[rank].Load()
}

func (c *chaosCore) crashErr(rank int) error {
	return fmt.Errorf("%w: rank %d crashed (chaos fault)", ErrPeerDown, rank)
}

// crash marks rank dead and, inside a ChaosWorld, wakes every peer blocked
// on it with ErrPeerDown.
func (c *chaosCore) crash(rank int) error {
	if !c.crashed[rank].Swap(true) {
		c.count(FaultCrash)
		if c.world != nil {
			c.world.markPeerDown(rank, fmt.Errorf("rank %d crashed (chaos fault)", rank))
		}
	}
	return c.crashErr(rank)
}

// snapshot returns the per-kind injected-fault counts, skipping zeros.
func (c *chaosCore) snapshot() map[string]int64 {
	out := make(map[string]int64)
	for k := FaultKind(0); k < numFaultKinds; k++ {
		if n := c.injected[k].Load(); n > 0 {
			out[k.String()] = n
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// The wrapping transport.
// ---------------------------------------------------------------------------

// streamSeed derives a stream-local seed from the plan seed and the stream
// identity (splitmix64-style mixing), so fault decisions on one stream are
// independent of every other stream's traffic and of goroutine scheduling.
func streamSeed(seed int64, from, to, tag int) int64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, v := range [3]uint64{uint64(from), uint64(to), uint64(tag)} {
		x += v + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x)
}

// chaosStream is the per-(receiver, tag) fault state of one sender: its
// seeded generator, send ordinal, the remaining length of a transient-send
// burst, and an at-most-one held message for reordering.
type chaosStream struct {
	mu        sync.Mutex
	rng       *rand.Rand
	index     int64
	failsLeft int
	// grace marks the first send after a transient burst: it must pass, so
	// a retry budget of MaxBurst+1 masks every burst deterministically
	// rather than probabilistically.
	grace     bool
	held      any
	heldValid bool
	heldGen   int64
}

// chaosTransport wraps a Transport with a FaultPlan. Not constructed
// directly — see NewChaosWorld and WrapChaos.
type chaosTransport struct {
	inner Transport
	core  *chaosCore
	self  int

	mu      sync.Mutex
	streams map[streamKey]*chaosStream
}

type streamKey struct{ to, tag int }

func newChaosTransport(inner Transport, core *chaosCore) *chaosTransport {
	return &chaosTransport{
		inner:   inner,
		core:    core,
		self:    inner.Rank(),
		streams: make(map[streamKey]*chaosStream),
	}
}

// Rank implements Transport.
func (c *chaosTransport) Rank() int { return c.inner.Rank() }

// Size implements Transport.
func (c *chaosTransport) Size() int { return c.inner.Size() }

// SetRecvTimeout forwards to the wrapped transport when it supports one.
func (c *chaosTransport) SetRecvTimeout(d time.Duration) {
	if ts, ok := c.inner.(TimeoutSetter); ok {
		ts.SetRecvTimeout(d)
	}
}

// Leave forwards to the wrapped transport when it supports departure.
func (c *chaosTransport) Leave(reason error) {
	if lv, ok := c.inner.(Leaver); ok {
		lv.Leave(reason)
	}
}

// Readmit forwards to the wrapped transport when it supports readmission.
// It clears receiver-side down markers only; the crash flag a FaultCrash set
// lives in the shared chaos core — use ChaosWorld.Readmit to clear both.
func (c *chaosTransport) Readmit(peer int) {
	if ra, ok := c.inner.(Readmitter); ok {
		ra.Readmit(peer)
	}
}

func (c *chaosTransport) stream(to, tag int) *chaosStream {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := streamKey{to: to, tag: tag}
	st, ok := c.streams[key]
	if !ok {
		st = &chaosStream{rng: rand.New(rand.NewSource(streamSeed(c.core.plan.Seed, c.self, to, tag)))}
		c.streams[key] = st
	}
	return st
}

// send actions decided under the stream lock, performed after it unlocks so
// no blocking transport call runs while a mutex is held.
const (
	actPass = iota
	actFailTransient
	actFailPartition
	actCrash
	actDup
	actDelay
	actHold
)

type decision struct {
	act     int
	delay   time.Duration
	heldGen int64
}

// Send implements Transport: it decides this message's fate from the
// stream's seeded generator, then performs the resulting deliveries.
func (c *chaosTransport) Send(to, tag int, payload any) error {
	if err := checkPayload(payload); err != nil {
		return err
	}
	if c.core.empty {
		return c.inner.Send(to, tag, payload)
	}
	if c.core.isCrashed(c.self) {
		return c.core.crashErr(c.self)
	}
	if c.core.isCrashed(to) {
		// The peer's process is gone: the message vanishes into the void,
		// exactly as an unacknowledged datagram to a dead host would.
		return nil
	}

	st := c.stream(to, tag)
	st.mu.Lock()
	pt := FaultPoint{From: c.self, To: to, Tag: tag, Index: st.index, Step: -1}
	if f, ok := payload.(SeqFrame); ok {
		pt.Step = f.Step
	}
	st.index++

	// A send on a stream with a held message releases it: deliver the new
	// message first, then the held one — the reorder. The releasing message
	// itself is exempt from further faults (at most one fault in flight per
	// stream keeps the state machine small).
	if st.heldValid {
		held := st.held
		st.held, st.heldValid = nil, false
		st.heldGen++
		st.mu.Unlock()
		if err := c.inner.Send(to, tag, payload); err != nil {
			return err
		}
		return c.inner.Send(to, tag, held)
	}

	// Continue an armed transient-send burst before consulting the rules.
	if st.failsLeft > 0 {
		st.failsLeft--
		st.mu.Unlock()
		return fmt.Errorf("chaos: send %d->%d dropped: %w", c.self, to, ErrTransient)
	}

	d := c.decide(st, pt, payload)
	st.mu.Unlock()

	switch d.act {
	case actCrash:
		return c.core.crash(c.self)
	case actFailPartition:
		c.core.count(FaultPartition)
		return fmt.Errorf("chaos: link %d->%d partitioned: %w", c.self, to, ErrPeerDown)
	case actFailTransient:
		c.core.count(FaultTransientSend)
		return fmt.Errorf("chaos: send %d->%d dropped: %w", c.self, to, ErrTransient)
	case actDup:
		c.core.count(FaultDuplicate)
		if err := c.inner.Send(to, tag, payload); err != nil {
			return err
		}
		return c.inner.Send(to, tag, payload)
	case actDelay:
		c.core.count(FaultDelay)
		c.core.wg.Add(1)
		go func() {
			defer c.core.wg.Done()
			time.Sleep(d.delay)
			// Error discarded: by the time a delayed message lands the
			// world may legitimately be closed.
			_ = c.inner.Send(to, tag, payload)
		}()
		return nil
	case actHold:
		c.core.count(FaultReorder)
		c.core.wg.Add(1)
		go func(gen int64) {
			defer c.core.wg.Done()
			time.Sleep(reorderFlush)
			st.mu.Lock()
			if st.heldValid && st.heldGen == gen {
				held := st.held
				st.held, st.heldValid = nil, false
				st.heldGen++
				st.mu.Unlock()
				_ = c.inner.Send(to, tag, held)
				return
			}
			st.mu.Unlock()
		}(d.heldGen)
		return nil
	default:
		return c.inner.Send(to, tag, payload)
	}
}

// decide evaluates the plan's rules against one send under the stream lock.
// It mutates only stream-local state; blocking calls happen in Send after
// the lock is released.
func (c *chaosTransport) decide(st *chaosStream, pt FaultPoint, payload any) decision {
	for i := range c.core.plan.Rules {
		r := &c.core.plan.Rules[i]
		if !r.matches(pt) {
			continue
		}
		if r.Rate < 1 && st.rng.Float64() >= r.Rate {
			continue
		}
		switch r.Kind {
		case FaultCrash:
			return decision{act: actCrash}
		case FaultPartition:
			return decision{act: actFailPartition}
		case FaultTransientSend:
			if st.grace {
				// The send right after a burst always passes; without this
				// guarantee back-to-back bursts could outlast any bounded
				// retry budget.
				st.grace = false
				continue
			}
			burst := r.MaxBurst
			if burst <= 0 {
				burst = DefaultMaxBurst
			}
			st.failsLeft = st.rng.Intn(burst) // failures after this one
			st.grace = true
			return decision{act: actFailTransient}
		case FaultDelay:
			maxd := r.MaxDelay
			if maxd <= 0 {
				maxd = DefaultMaxDelay
			}
			return decision{act: actDelay, delay: time.Duration(1 + st.rng.Int63n(int64(maxd)))}
		case FaultDuplicate:
			return decision{act: actDup}
		case FaultReorder:
			st.held = payload
			st.heldValid = true
			st.heldGen++
			return decision{act: actHold, heldGen: st.heldGen}
		}
	}
	return decision{act: actPass}
}

// Recv implements Transport. Faults are injected on the send side; a
// receive fails only when this rank has crashed (every operation of a dead
// rank errors) — receives from crashed peers are unblocked by the
// ChaosWorld's down markers, or by the transport's RecvTimeout.
func (c *chaosTransport) Recv(from, tag int) (any, error) {
	if !c.core.empty && c.core.isCrashed(c.self) {
		return nil, c.core.crashErr(c.self)
	}
	return c.inner.Recv(from, tag)
}

// Compile-time checks.
var (
	_ Transport     = (*chaosTransport)(nil)
	_ TimeoutSetter = (*chaosTransport)(nil)
	_ Leaver        = (*chaosTransport)(nil)
	_ Readmitter    = (*chaosTransport)(nil)
	_ Readmitter    = (*rank)(nil)
	_ Readmitter    = (*tcpRank)(nil)
	_ Readmitter    = (*TCPNode)(nil)
)

// WrapChaos wraps a single rank's transport with a fault plan. Every rank of
// a world must be wrapped with the same plan for the faults to be coherent;
// prefer NewChaosWorld, which also fans rank crashes out to peers. With a
// bare WrapChaos, a peer of a crashed rank unblocks only through the
// transport's RecvTimeout.
func WrapChaos(t Transport, plan FaultPlan) Transport {
	return newChaosTransport(t, newChaosCore(plan, t.Size(), nil))
}

// ChaosWorld is an in-process world whose ranks all share one fault plan —
// the deterministic chaos harness of the test suites.
type ChaosWorld struct {
	world *World
	core  *chaosCore
	ranks []*chaosTransport
}

// NewChaosWorld builds an n-rank in-process world injecting faults per plan.
func NewChaosWorld(n int, plan FaultPlan) (*ChaosWorld, error) {
	if err := plan.validate(n); err != nil {
		return nil, err
	}
	w, err := NewWorld(n)
	if err != nil {
		return nil, err
	}
	cw := &ChaosWorld{world: w, core: newChaosCore(plan, n, w), ranks: make([]*chaosTransport, n)}
	for i := 0; i < n; i++ {
		cw.ranks[i] = newChaosTransport(w.Rank(i), cw.core)
	}
	return cw, nil
}

// Size returns the number of ranks.
func (cw *ChaosWorld) Size() int { return cw.world.Size() }

// Rank returns the fault-injecting transport endpoint for rank i.
func (cw *ChaosWorld) Rank(i int) Transport { return cw.ranks[i] }

// SetRecvTimeout bounds every rank's blocking receives; zero disables.
func (cw *ChaosWorld) SetRecvTimeout(d time.Duration) { cw.world.SetRecvTimeout(d) }

// Injected returns how many faults of each kind actually fired, keyed by
// FaultKind.String(). Tests use it to prove a plan exercised anything at
// all; zero-count kinds are omitted.
func (cw *ChaosWorld) Injected() map[string]int64 { return cw.core.snapshot() }

// Crashed returns the ranks FaultCrash has killed so far, ascending. The
// elastic supervisor reads it after a faulted epoch to decide how far the
// world must shrink.
func (cw *ChaosWorld) Crashed() []int {
	var out []int
	for i := range cw.core.crashed {
		if cw.core.crashed[i].Load() {
			out = append(out, i)
		}
	}
	return out
}

// Readmit returns a recovered rank to the world: the crash flag is cleared
// (its transport operates again, and peers' sends to it deliver again) and
// every rank's receiver-side down markers for it are reset. The caller
// readmits between steps and barriers before traffic resumes, like
// World.Readmit. Crash *rules* stay armed — they target tags, and a rebuilt
// world's Communicators run in a fresh epoch plane, so a once-fired
// step-targeted rule cannot re-fire on the readmitted rank.
func (cw *ChaosWorld) Readmit(rank int) {
	if rank < 0 || rank >= len(cw.core.crashed) {
		return
	}
	cw.core.crashed[rank].Store(false)
	cw.world.Readmit(rank)
}

// Close tears the world down and waits for every in-flight delayed delivery
// and reorder flush to finish, so chaos leaves no goroutines behind.
func (cw *ChaosWorld) Close() {
	cw.world.Close()
	cw.core.wg.Wait()
}

// RunRanksChaos is RunRanks over a ChaosWorld: fn runs concurrently on every
// rank of a fresh fault-injecting world, and the joined per-rank errors are
// returned. Maskable plans must leave fn's results identical to RunRanks;
// unmaskable plans surface as typed errors (ErrPeerDown, ErrTimeout).
func RunRanksChaos(n int, plan FaultPlan, fn func(t Transport) error) error {
	cw, err := NewChaosWorld(n, plan)
	if err != nil {
		return err
	}
	defer cw.Close()
	return runEach(n, cw.Rank, fn)
}
