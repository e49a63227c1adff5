package trainer

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"embrace/internal/strategies"
	"embrace/internal/trace"
)

// tracedJob returns the standard small test job with tracing enabled under
// the EmbRace 2D schedule, the configuration whose timeline exercises every
// span kind (lookup, exchanges, vertical split, background delayed lane).
func tracedJob(workers, steps int) Job {
	job := testJob(strategies.EmbRace, workers)
	job.Steps = steps
	job.Model.Sched = strategies.Sched2D
	job.Model.Optimizer = strategies.OptAdam
	job.Model.LR = 0.01
	job.Trace = true
	return job
}

// spansOf filters one recorder's spans by name.
func spansOf(r *trace.Recorder, name string) []trace.Span {
	var out []trace.Span
	for _, s := range r.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// byStep indexes one recorder's spans of the given name by training step.
func byStep(r *trace.Recorder, name string) map[int]trace.Span {
	out := map[int]trace.Span{}
	for _, s := range spansOf(r, name) {
		out[s.Step] = s
	}
	return out
}

func TestTraceDisabledLeavesResultBare(t *testing.T) {
	job := testJob(strategies.EmbRace, 2)
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces != nil || res.PhaseSeconds != nil {
		t.Fatalf("tracing off must leave Traces/PhaseSeconds nil, got %d traces", len(res.Traces))
	}
}

func TestTraceRunRecordsEveryRank(t *testing.T) {
	job := tracedJob(2, 4)
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 2 {
		t.Fatalf("%d traces, want 2", len(res.Traces))
	}
	for rank, r := range res.Traces {
		if r == nil {
			t.Fatalf("rank %d recorder missing", rank)
		}
		if r.Rank() != rank {
			t.Fatalf("trace slot %d holds rank %d", rank, r.Rank())
		}
		steps := spansOf(r, "step")
		if len(steps) != job.Steps {
			t.Fatalf("rank %d: %d step spans, want %d", rank, len(steps), job.Steps)
		}
	}
	for _, phase := range []string{"step", strategies.SpanFP, strategies.SpanBP,
		strategies.SpanPriorExchange, strategies.SpanDelayedExchange, strategies.SpanVSplit} {
		if res.PhaseSeconds[phase] <= 0 {
			t.Fatalf("PhaseSeconds[%q] = %g, want > 0", phase, res.PhaseSeconds[phase])
		}
	}
}

// TestTraceChromeExportGolden checks the exported JSON end to end: it
// parses, every complete event has positive duration, per-rank compute
// spans nest inside their step span, the prior exchange of step k finishes
// before step k+1 harvests the delayed half (the ordering Algorithm 1
// requires), that harvest sits where late harvest puts it — after the step's
// own FP/BP, before its vertical split — and the dense lane's span sits where
// the late dense join puts it: after its step's BP, before the next step's FP.
func TestTraceChromeExportGolden(t *testing.T) {
	job := tracedJob(2, 4)
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := trace.ExportRecorders(&buf, "golden", res.Traces); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	pids := map[float64]bool{}
	for _, e := range parsed.TraceEvents {
		if e["ph"] != "X" {
			continue
		}
		if e["dur"].(float64) <= 0 {
			t.Fatalf("non-positive duration: %v", e)
		}
		pids[e["pid"].(float64)] = true
	}
	if len(pids) != 2 {
		t.Fatalf("pids %v, want one process per rank", pids)
	}

	for rank, r := range res.Traces {
		// Every compute-track span of step k nests inside that step's
		// "step" span: the step loop Begins before the worker and Ends
		// after it, all on one goroutine and one clock.
		stepSpan := byStep(r, "step")
		for _, s := range r.Spans() {
			if s.Step < 0 || s.Track != trace.TrackCompute || s.Name == "step" {
				continue
			}
			outer, ok := stepSpan[s.Step]
			if !ok {
				t.Fatalf("rank %d: span %q has step %d with no step span", rank, s.Name, s.Step)
			}
			if s.Start < outer.Start || s.End() > outer.End() {
				t.Fatalf("rank %d: %q [%v,%v] escapes step %d [%v,%v]",
					rank, s.Name, s.Start, s.End(), s.Step, outer.Start, outer.End())
			}
		}
		// Ordering: step k's prior exchange completes before step k+1
		// harvests the delayed remainder.
		prior := byStep(r, strategies.SpanPriorExchange)
		bp, split := byStep(r, strategies.SpanBP), byStep(r, strategies.SpanVSplit)
		for _, h := range spansOf(r, strategies.SpanHarvestDelayed) {
			if h.Step < 1 {
				continue // the final FullEmbedding harvest runs outside the step loop
			}
			p, ok := prior[h.Step-1]
			if !ok {
				t.Fatalf("rank %d: harvest at step %d without prior exchange at %d", rank, h.Step, h.Step-1)
			}
			if p.End() > h.Start {
				t.Fatalf("rank %d: prior exchange of step %d ends %v, after harvest of step %d starts %v",
					rank, h.Step-1, p.End(), h.Step, h.Start)
			}
			// Late harvest: the step's FP and BP come first, its split after.
			if bp[h.Step].End() > h.Start || h.End() > split[h.Step].Start {
				t.Fatalf("rank %d step %d: harvest [%v,%v] not between bp end %v and vsplit start %v",
					rank, h.Step, h.Start, h.End(), bp[h.Step].End(), split[h.Step].Start)
			}
		}
		// The worker routes the wire events of both ops it runs off the step
		// goroutine to the background lane; nobody else does.
		routed := 0
		for _, s := range r.Spans() {
			if s.Name != strategies.OpTrunk && s.Name != strategies.OpEmbDelayed {
				continue
			}
			if s.Track != trace.TrackBackground {
				t.Fatalf("rank %d: wire event of %s on track %d", rank, s.Name, s.Track)
			}
			routed++
		}
		if routed == 0 {
			t.Fatalf("rank %d: no wire events of the background ops recorded", rank)
		}
		// The dense lane starts once BP has produced the trunk gradients, on
		// the background track, and is joined before the next step's forward
		// reads the trunk.
		dense := spansOf(r, strategies.SpanTrunk)
		if len(dense) != job.Steps {
			t.Fatalf("rank %d: %d dense spans, want %d", rank, len(dense), job.Steps)
		}
		fp := byStep(r, strategies.SpanFP)
		for _, d := range dense {
			if d.Track != trace.TrackBackground {
				t.Fatalf("rank %d: dense exchange on track %d", rank, d.Track)
			}
			if bp[d.Step].End() > d.Start {
				t.Fatalf("rank %d step %d: dense exchange starts %v, before bp ends %v", rank, d.Step, d.Start, bp[d.Step].End())
			}
			if next, ok := fp[d.Step+1]; ok && d.End() > next.Start {
				t.Fatalf("rank %d step %d: dense exchange ends %v, after step %d's fp starts %v",
					rank, d.Step, d.End(), d.Step+1, next.Start)
			}
		}
	}
}

// TestTraceDelayedOverlapsNextStep is the acceptance criterion of §4.2.2
// and §4.1.3 made a test: on some rank, the background delayed-gradient
// AlltoAll span of step k overlaps a compute span of step k+1 (late harvest
// leaves it the whole of that step's lookup, FP and BP to hide behind), and
// on some rank the dense lane's span overlaps the embedding-gradient spans
// the step loop runs beside it. Both depend on goroutine scheduling, so a
// few attempts are allowed before failing.
func TestTraceDelayedOverlapsNextStep(t *testing.T) {
	job := tracedJob(4, 8)
	// A heavier model keeps the background exchange in flight long enough
	// to reach into the next step.
	job.Model.Vocab = 400
	job.Data.VocabSize = 400
	job.Model.EmbDim = 32
	job.Model.Hidden = 16
	job.Data.BatchSentences = 16
	embPath := map[string]bool{strategies.SpanVSplit: true, strategies.SpanPriorExchange: true,
		strategies.SpanPriorUpdate: true, strategies.SpanHarvestDelayed: true}
	delayedHidden, denseBeside := false, false
	for attempt := 0; attempt < 3 && !(delayedHidden && denseBeside); attempt++ {
		res, err := Run(job)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Traces {
			for _, d := range spansOf(r, strategies.SpanDelayedExchange) {
				if d.Track != trace.TrackBackground {
					t.Fatalf("delayed exchange on track %d", d.Track)
				}
				for _, s := range r.Spans() {
					if s.Track == trace.TrackCompute && s.Step == d.Step+1 && d.Overlaps(s) {
						delayedHidden = true // delayed comm hid behind next step's work
					}
				}
			}
			for _, d := range spansOf(r, strategies.SpanTrunk) {
				for _, s := range r.Spans() {
					if s.Track == trace.TrackCompute && s.Step == d.Step && embPath[s.Name] && d.Overlaps(s) {
						denseBeside = true // dense ring ran beside the embedding path
					}
				}
			}
		}
	}
	if !delayedHidden {
		t.Fatal("no delayed-exchange span overlapped the following step's compute in 3 runs")
	}
	if !denseBeside {
		t.Fatal("no dense-exchange span overlapped its own step's embedding-gradient path in 3 runs")
	}
}

func TestTraceInjectedClock(t *testing.T) {
	var tick atomic.Int64
	job := tracedJob(2, 2)
	job.TraceClock = func() time.Duration {
		return time.Duration(tick.Add(1)) * time.Microsecond
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Traces {
		for _, s := range r.Spans() {
			if s.Track != trace.TrackCompute {
				continue // observer spans mix in the collective's own timing
			}
			if s.Start%time.Microsecond != 0 {
				t.Fatalf("span %q start %v not on the injected tick grid", s.Name, s.Start)
			}
		}
	}
	if tick.Load() == 0 {
		t.Fatal("injected clock never consulted")
	}
}
