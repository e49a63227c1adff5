package trace

import (
	"sync"
	"time"
)

// This file is the real-execution half of the package: where trace.go
// exports the *simulated* timelines of internal/perfsim, the Recorder
// records *measured* per-rank timelines from a live training run — the
// instrument that lets a real GNMT-style job and its perfsim prediction
// open side-by-side in Perfetto. The trainer owns one Recorder per rank;
// strategy workers mark their step phases on it, and the collective
// Observer bridge (Sent/Received below) lands every point-to-point message
// of every collective on a network track without touching call sites.

// Track identifies the lane a span occupies within one rank's timeline.
// The integer values double as Chrome trace thread ids, extending the
// perfsim exporter's convention (compute stream = 0, network stream = 1).
type Track int

const (
	// TrackCompute is the rank's step loop: FP/BP, optimizer updates,
	// scheduling work, and the stalls where the loop blocks on a
	// collective.
	TrackCompute Track = iota
	// TrackNetwork carries the point-to-point transfers of the blocking
	// collectives the step loop issues (the Observer auto-spans).
	TrackNetwork
	// TrackBackground carries exchanges that overlap the step loop from
	// their own goroutine — EmbRace's delayed-gradient AlltoAll (§4.2.2) and
	// its dense ring pass (§4.1.3). A separate lane keeps them from
	// interleaving with the step loop's network spans.
	TrackBackground
)

// trackNames label the Chrome thread tracks, in Track order.
var trackNames = [...]string{"compute", "network", "network (background)"}

// Span is one completed interval on a rank's track.
type Span struct {
	// Name identifies the phase or logical operation, e.g. "fp",
	// "xchg/prior", "emb/delayed". Names are stable keys: PhaseSeconds
	// aggregates by them and the exporter categorizes by their prefix.
	Name string
	// Track is the lane the span occupies.
	Track Track
	// Step is the training step the span belongs to, or -1 when the
	// recorder cannot know it (Observer auto-spans, out-of-band work).
	Step int
	// Start and Dur locate the span on the recorder's clock.
	Start, Dur time.Duration
}

// End returns the instant the span closed.
func (s Span) End() time.Duration { return s.Start + s.Dur }

// Overlaps reports whether two spans intersect in time for a positive
// duration (sharing only an endpoint does not count).
func (s Span) Overlaps(o Span) bool {
	return s.Start < o.End() && o.Start < s.End()
}

// Clock is an injectable monotonic time source: a duration since an
// arbitrary per-recorder epoch. The default reads the wall clock *inside
// this package*, so instrumented packages (trainer, strategies) never call
// time.Now themselves — that keeps them inside the embracevet determinism
// analyzer's coverage, and lets tests inject a deterministic tick counter.
type Clock func() time.Duration

// Recorder is a per-rank, low-overhead span recorder. All methods are safe
// for concurrent use (the delayed-exchange goroutine records concurrently
// with the step loop) and safe on a nil *Recorder, so instrumented code
// needs no "is tracing on?" branches: a nil recorder costs one pointer
// compare per span.
type Recorder struct {
	rank  int
	clock Clock

	mu     sync.Mutex
	spans  []Span
	routes map[string]Track // op name -> track, for Observer auto-spans
}

// RecorderOption configures a Recorder.
type RecorderOption func(*Recorder)

// WithClock injects the recorder's time source; nil keeps the default
// monotonic wall clock.
func WithClock(c Clock) RecorderOption {
	return func(r *Recorder) {
		if c != nil {
			r.clock = c
		}
	}
}

// NewRecorder creates a span recorder for one rank.
func NewRecorder(rank int, opts ...RecorderOption) *Recorder {
	r := &Recorder{rank: rank}
	for _, o := range opts {
		o(r)
	}
	if r.clock == nil {
		r.clock = NewWallClock()
	}
	return r
}

// NewWallClock returns a monotonic wall-clock Clock anchored at the call —
// the same default a Recorder builds for itself, exported for instrumented
// packages that need a duration measurement outside any recorder (the
// elastic trainer times fault-to-recovery latency with one). Keeping the
// time.Now call here preserves the determinism analyzer's guarantee that
// trainer/comm code never reads the wall clock directly.
func NewWallClock() Clock {
	epoch := time.Now()
	return func() time.Duration { return time.Since(epoch) }
}

// Rank returns the rank this recorder belongs to.
func (r *Recorder) Rank() int {
	if r == nil {
		return -1
	}
	return r.rank
}

// RouteOp directs the Observer auto-spans of one logical operation to a
// specific track. A strategy worker routes the ops it runs off the step
// goroutine to TrackBackground so their spans cannot interleave with the
// step loop's network spans. Must be called before traffic flows; no-op on
// a nil recorder.
func (r *Recorder) RouteOp(op string, track Track) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.routes == nil {
		r.routes = make(map[string]Track)
	}
	r.routes[op] = track
	r.mu.Unlock()
}

// Active is an open span returned by Begin. It is a value (no allocation);
// End closes it.
type Active struct {
	r     *Recorder
	start time.Duration
	name  string
	track Track
	step  int
}

// Begin opens a span on the given track. On a nil recorder it returns an
// inert Active whose End is a no-op.
func (r *Recorder) Begin(track Track, name string, step int) Active {
	if r == nil {
		return Active{}
	}
	return Active{r: r, start: r.clock(), name: name, track: track, step: step}
}

// End closes the span and commits it to the recorder.
func (a Active) End() {
	if a.r == nil {
		return
	}
	end := a.r.clock()
	a.r.commit(a.track, a.name, a.step, a.start, end-a.start)
}

// Record commits a span that ends now and lasted dur — the shape the
// Observer bridge needs, since blocking times are reported after the fact.
func (r *Recorder) Record(track Track, name string, step int, dur time.Duration) {
	if r == nil {
		return
	}
	end := r.clock()
	r.commit(track, name, step, end-dur, dur)
}

// commit appends the completed span. Durations are clamped to 1ns so every
// exported ph:"X" event has positive width even under a coarse clock.
func (r *Recorder) commit(track Track, name string, step int, start, dur time.Duration) {
	if dur <= 0 {
		dur = 1
	}
	if start < 0 {
		start = 0
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{Name: name, Track: track, Step: step, Start: start, Dur: dur})
	r.mu.Unlock()
}

// Spans returns a copy of the spans recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// Reset discards all recorded spans (benchmarks bound memory with it).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// PhaseSeconds sums span durations by span name — the per-phase summary
// behind trainer.Result.PhaseSeconds. Observer auto-spans aggregate under
// their op names ("emb/delayed", "dense/trunk", ...), explicit phases under
// theirs ("fp", "xchg/prior", "sched/harvest-delayed", ...).
func (r *Recorder) PhaseSeconds() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64)
	for _, s := range r.spans {
		out[s.Name] += s.Dur.Seconds()
	}
	return out
}

// ---------------------------------------------------------------------------
// Observer bridge.
//
// These two methods make *Recorder satisfy collective.Observer structurally
// (the signatures match; no import needed, so collective stays free of a
// trace dependency and vice versa). A Communicator built with
// collective.WithObserver(rec) — typically through collective.MultiObserver
// so the metrics OpRecorder keeps counting — lands every point-to-point
// message on the network track automatically, named by its logical op.
// ---------------------------------------------------------------------------

// trackOf resolves the track Observer spans of op land on.
func (r *Recorder) trackOf(op string) Track {
	r.mu.Lock()
	t, ok := r.routes[op]
	r.mu.Unlock()
	if !ok {
		return TrackNetwork
	}
	return t
}

// Sent implements collective.Observer: one network span per send, covering
// the time the transport held the caller.
func (r *Recorder) Sent(op string, _ any, blocked time.Duration) {
	if r == nil {
		return
	}
	r.Record(r.trackOf(op), op, -1, blocked)
}

// Received implements collective.Observer: one network span per receive,
// covering the blocked wait — the real-mode analogue of communication
// stall.
func (r *Recorder) Received(op string, _ any, blocked time.Duration) {
	if r == nil {
		return
	}
	r.Record(r.trackOf(op), op, -1, blocked)
}
