// Package metrics instruments a comm.Transport with traffic and blocking
// accounting. Wrapping a rank's transport costs nothing in the strategies —
// they see the same interface — and yields the real-execution counterpart of
// the paper's communication analysis: how many bytes each strategy actually
// moved and how long each rank spent blocked in communication. The
// cross-strategy byte comparisons (EmbRace's AlltoAll traffic vs AllGather's
// N-fold payload) validate the Table-2 cost model with measured data.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"

	"embrace/internal/comm"
)

// Stats is a snapshot of one rank's communication counters.
type Stats struct {
	// SendSeconds and RecvSeconds are wall-clock time spent inside Send
	// and Recv. Recv time is the real-mode analogue of communication
	// stall: the rank had nothing to do but wait.
	SendSeconds, RecvSeconds float64
	// Messages counts Send calls.
	Messages int64
	// PayloadBytes estimates the bytes sent (tensor payloads and token
	// batches; small control values count as zero).
	PayloadBytes int64
	// FaultsMasked counts communication faults absorbed by the self-healing
	// layer (duplicates dropped, reordered frames buffered, transient sends
	// retried); FaultsFatal counts faults that surfaced as errors.
	FaultsMasked, FaultsFatal int64
}

// Add returns the element-wise sum of two snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		SendSeconds:  s.SendSeconds + o.SendSeconds,
		RecvSeconds:  s.RecvSeconds + o.RecvSeconds,
		Messages:     s.Messages + o.Messages,
		PayloadBytes: s.PayloadBytes + o.PayloadBytes,
		FaultsMasked: s.FaultsMasked + o.FaultsMasked,
		FaultsFatal:  s.FaultsFatal + o.FaultsFatal,
	}
}

// Transport decorates a comm.Transport with counters. Safe for concurrent
// use, like the transport it wraps.
type Transport struct {
	inner comm.Transport

	sendNS  atomic.Int64
	recvNS  atomic.Int64
	msgs    atomic.Int64
	payload atomic.Int64
}

// Wrap instruments t.
func Wrap(t comm.Transport) *Transport {
	return &Transport{inner: t}
}

// Rank implements comm.Transport.
func (m *Transport) Rank() int { return m.inner.Rank() }

// Size implements comm.Transport.
func (m *Transport) Size() int { return m.inner.Size() }

// Send implements comm.Transport, recording duration and payload size.
func (m *Transport) Send(to, tag int, payload any) error {
	start := time.Now()
	err := m.inner.Send(to, tag, payload)
	m.sendNS.Add(time.Since(start).Nanoseconds())
	m.msgs.Add(1)
	m.payload.Add(PayloadSize(payload))
	return err
}

// Recv implements comm.Transport, recording blocked time.
func (m *Transport) Recv(from, tag int) (any, error) {
	start := time.Now()
	payload, err := m.inner.Recv(from, tag)
	m.recvNS.Add(time.Since(start).Nanoseconds())
	return payload, err
}

// Stats returns the counters accumulated so far.
func (m *Transport) Stats() Stats {
	return Stats{
		SendSeconds:  float64(m.sendNS.Load()) / 1e9,
		RecvSeconds:  float64(m.recvNS.Load()) / 1e9,
		Messages:     m.msgs.Load(),
		PayloadBytes: m.payload.Load(),
	}
}

// PayloadSize is the payload's size in bytes as comm.SizeOf reports it:
// framing and control values count zero, and so does a payload outside the
// wire's set, which no fabric would have carried.
func PayloadSize(payload any) int64 {
	n, _ := comm.SizeOf(payload)
	return n
}

// Compile-time check.
var _ comm.Transport = (*Transport)(nil)

// OpStats is per-logical-operation traffic: what one rank sent and received
// under a single Communicator op name.
type OpStats struct {
	// Messages counts sends of the op.
	Messages int64
	// PayloadBytes estimates the bytes this rank sent under the op.
	PayloadBytes int64
	// SendSeconds and RecvSeconds are wall-clock time inside Send/Recv for
	// the op; RecvSeconds is the op's communication stall.
	SendSeconds, RecvSeconds float64
	// SendBlocked and RecvBlocked hold the per-message blocked-time
	// distributions behind the totals above, so a report can state p50/p99
	// stall per op instead of only its sum — the tail is what a synchronous
	// step actually waits on. Nil when the op recorded no traffic.
	SendBlocked, RecvBlocked *Histogram
	// FaultsMasked and FaultsFatal count communication faults the op
	// absorbed and surfaced, respectively (see Stats).
	FaultsMasked, FaultsFatal int64
}

// Add returns the element-wise sum of two per-op snapshots. Blocked-time
// histograms merge exactly (shared bucket layout), so cross-rank percentiles
// are those of the pooled observations.
func (s OpStats) Add(o OpStats) OpStats {
	return OpStats{
		Messages:     s.Messages + o.Messages,
		PayloadBytes: s.PayloadBytes + o.PayloadBytes,
		SendSeconds:  s.SendSeconds + o.SendSeconds,
		RecvSeconds:  s.RecvSeconds + o.RecvSeconds,
		SendBlocked:  MergeHistograms(s.SendBlocked, o.SendBlocked),
		RecvBlocked:  MergeHistograms(s.RecvBlocked, o.RecvBlocked),
		FaultsMasked: s.FaultsMasked + o.FaultsMasked,
		FaultsFatal:  s.FaultsFatal + o.FaultsFatal,
	}
}

// OpRecorder aggregates traffic per logical operation name. It satisfies
// collective.Observer structurally, so a Communicator built with
// collective.WithObserver(rec) attributes every byte to the op that moved it
// — the per-op refinement of the transport-level Wrap counters. Safe for
// concurrent use.
type OpRecorder struct {
	mu  sync.Mutex
	ops map[string]*OpStats
}

// NewOpRecorder returns an empty per-op traffic recorder.
func NewOpRecorder() *OpRecorder {
	return &OpRecorder{ops: make(map[string]*OpStats)}
}

func (r *OpRecorder) get(op string) *OpStats {
	s, ok := r.ops[op]
	if !ok {
		s = &OpStats{}
		r.ops[op] = s
	}
	return s
}

// Sent implements collective.Observer.
func (r *OpRecorder) Sent(op string, payload any, blocked time.Duration) {
	size := PayloadSize(payload)
	r.mu.Lock()
	s := r.get(op)
	s.Messages++
	s.PayloadBytes += size
	s.SendSeconds += blocked.Seconds()
	if s.SendBlocked == nil {
		s.SendBlocked = NewHistogram()
	}
	s.SendBlocked.Observe(blocked.Seconds())
	r.mu.Unlock()
}

// Received implements collective.Observer.
func (r *OpRecorder) Received(op string, payload any, blocked time.Duration) {
	r.mu.Lock()
	s := r.get(op)
	s.RecvSeconds += blocked.Seconds()
	if s.RecvBlocked == nil {
		s.RecvBlocked = NewHistogram()
	}
	s.RecvBlocked.Observe(blocked.Seconds())
	r.mu.Unlock()
}

// Fault implements collective.FaultObserver: kind is the fault class
// ("duplicate", "reorder", "transient", ...) and masked reports whether the
// Communicator absorbed it or surfaced an error.
func (r *OpRecorder) Fault(op string, kind string, masked bool) {
	r.mu.Lock()
	s := r.get(op)
	if masked {
		s.FaultsMasked++
	} else {
		s.FaultsFatal++
	}
	r.mu.Unlock()
}

// PerOp returns a copy of the per-op counters accumulated so far. The
// blocked-time histograms are deep-copied, so the snapshot is immune to
// further recording.
func (r *OpRecorder) PerOp() map[string]OpStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]OpStats, len(r.ops))
	for op, s := range r.ops {
		c := *s
		c.SendBlocked = s.SendBlocked.Clone()
		c.RecvBlocked = s.RecvBlocked.Clone()
		out[op] = c
	}
	return out
}

// Total folds the per-op counters into one transport-level snapshot,
// comparable with Wrap's Stats.
func (r *OpRecorder) Total() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t Stats
	for _, s := range r.ops {
		t.Messages += s.Messages
		t.PayloadBytes += s.PayloadBytes
		t.SendSeconds += s.SendSeconds
		t.RecvSeconds += s.RecvSeconds
		t.FaultsMasked += s.FaultsMasked
		t.FaultsFatal += s.FaultsFatal
	}
	return t
}
