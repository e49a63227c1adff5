package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"embrace/internal/trace"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around a module's public functions. Spans of one step or request
// share ID; Parent is the index of the enclosing span in tracer.spans, or -1.
type span struct {
	Name     string
	Layer    string
	Workload string
	ID       int
	Parent   int
	Start    time.Duration
	Dur      time.Duration
	// Rank and Lane place the span in the Chrome trace (process, thread).
	Rank, Lane int
}

// Lanes of a rank's timeline: the step loop (with the wire events it blocks
// on) and the background delayed exchange, which overlaps it.
const (
	laneFore = iota
	laneBack
)

// tracer keeps every span of one traced pass in memory; nothing is written
// until the run ends.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// now is the tracer's clock: time since the traced pass began.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// record adds a root span that began at start (on the tracer's clock) and
// ends now, and returns its duration.
func (t *tracer) record(layer, name string, id int, start time.Duration) time.Duration {
	dur := t.now() - start
	t.add(span{Name: name, Layer: layer, ID: id, Parent: -1, Start: start, Dur: dur})
	return dur
}

// time records one root span around fn and returns its duration.
func (t *tracer) time(layer, name string, id int, fn func()) time.Duration {
	start := t.now()
	fn()
	return t.record(layer, name, id, start)
}

func (t *tracer) add(s span) int {
	s.Workload = t.workload
	t.mu.Lock()
	t.spans = append(t.spans, s)
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// layerOfRecorded names the module a span recorded through the existing
// strategies.WithRecorder / collective.Observer hooks belongs to.
func layerOfRecorded(name string) string {
	switch {
	case name == "step":
		return "trainer"
	case strings.HasPrefix(name, "codec/"):
		return "compress"
	case name == "fp", name == "bp", name == "emb/lookup",
		strings.HasPrefix(name, "xchg/"), strings.HasPrefix(name, "sched/"), strings.HasPrefix(name, "opt/"):
		return "strategies"
	default:
		// Observer auto-spans carry the op name of the message they timed.
		return "collective"
	}
}

// importRecorder folds one rank's trace.Recorder spans, taken on the
// tracer's clock, into the tracer. Parents come from time
// containment within a lane: the recorder's compute and network tracks are
// one goroutine (the step loop and the sends and receives it blocks in),
// the background track is the delayed exchange's.
func (t *tracer) importRecorder(rank int, rec []trace.Span) {
	byLane := [2][]trace.Span{}
	for _, s := range rec {
		lane := laneFore
		if s.Track == trace.TrackBackground {
			lane = laneBack
		}
		byLane[lane] = append(byLane[lane], s)
	}
	for lane, ss := range byLane {
		// Outer spans first: earlier start, and on a tie the longer one.
		sort.SliceStable(ss, func(i, j int) bool {
			if ss[i].Start != ss[j].Start {
				return ss[i].Start < ss[j].Start
			}
			return ss[i].Dur > ss[j].Dur
		})
		var stack []int // indices into t.spans of the open enclosing spans
		for _, s := range ss {
			for len(stack) > 0 {
				top := t.spans[stack[len(stack)-1]]
				if s.Start+s.Dur <= top.Start+top.Dur {
					break
				}
				stack = stack[:len(stack)-1]
			}
			parent, id := -1, s.Step
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
				if id < 0 {
					id = t.spans[parent].ID
				}
			}
			i := t.add(span{Name: s.Name, Layer: layerOfRecorded(s.Name), ID: id, Parent: parent,
				Start: s.Start, Dur: s.Dur, Rank: rank, Lane: lane})
			stack = append(stack, i)
		}
	}
}

// selfTimes returns each span's duration minus the part its direct children
// cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.Dur
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// durs returns the durations of every span named name in layer.
func (t *tracer) durs(layer, name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, s.Dur.Seconds())
		}
	}
	return out
}

// chromeEvent is one "complete" event of the Chrome trace-event format;
// timestamps and durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans of every tracer as one Chrome trace.
func writeChrome(w io.Writer, tracers []*tracer) error {
	events := []chromeEvent{}
	for pid, t := range tracers {
		for i, s := range t.spans {
			events = append(events, chromeEvent{
				Name: s.Name, Cat: s.Layer, Ph: "X",
				TS: float64(s.Start) / 1e3, Dur: float64(s.Dur) / 1e3,
				// One process per (workload, rank) keeps the workloads apart.
				PID: pid*16 + s.Rank, TID: s.Lane,
				Args: map[string]any{"workload": s.Workload, "id": s.ID, "span": i, "parent": s.Parent},
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
