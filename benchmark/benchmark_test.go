package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"embrace/internal/strategies"
	"embrace/internal/trainer"
)

// All five workloads, both passes, at 1/50 of the reference length: every
// named metric is emitted and nothing fails. The same run feeds -compare.
func TestSmallScaleRunEmitsEveryMetric(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.json")
	start := time.Now()
	if code := run([]string{"-seconds", "0.3", "-out", out, "-trace-out", filepath.Join(t.TempDir(), "trace.json")}); code != 0 {
		t.Fatalf("run exited %d", code)
	}
	t.Logf("five workloads, both passes: %v", time.Since(start))
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Env.Seed != 1 || rep.Env.GOMAXPROCS < 1 || rep.Env.GoVersion == "" {
		t.Errorf("env block incomplete: %+v", rep.Env)
	}
	for _, wl := range workloads {
		for _, pass := range []struct {
			traced bool
			defs   []metricDef
		}{{false, endToEnd}, {true, perLayer}} {
			var p *passResult
			for _, q := range rep.Passes {
				if q.Workload == wl.name && q.Traced == pass.traced {
					p = q
				}
			}
			if p == nil {
				t.Errorf("%s traced=%v: no pass in the report", wl.name, pass.traced)
				continue
			}
			if p.Failed != 0 || p.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", wl.name, pass.traced, p.Attempted, p.Failed, p.Notes)
			}
			if len(p.Metrics) != len(pass.defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, pass.traced, len(p.Metrics), len(pass.defs))
			}
			for _, d := range pass.defs {
				v, ok := p.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", wl.name, pass.traced, d.name)
				case v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v %q, want a finite value in %q", wl.name, d.name, v.Value, v.Unit, d.unit)
				case !pass.traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, d.name, v.Value)
				}
			}
			if wl.train != nil && p.LossDigest == "" {
				t.Errorf("%s traced=%v: no loss_digest", wl.name, pass.traced)
			}
			if p.Regime == nil && (pass.traced || wl.serve != nil) {
				t.Errorf("%s traced=%v: regime condition not evaluated", wl.name, pass.traced)
			}
		}
	}

	// A run agrees with itself; a copy whose throughput fell by 40% and
	// whose latency rose by 50% is worse on exactly those metrics.
	var buf bytes.Buffer
	if code := compareFiles(&buf, out, out); code != 0 {
		t.Errorf("comparing a run with itself exited %d:\n%s", code, buf.String())
	}
	for _, p := range rep.Passes {
		if !p.Traced {
			tp, lat := p.Metrics["throughput_per_s"], p.Metrics["latency_ms"]
			tp.Value *= 0.6
			lat.Value *= 1.5
			p.Metrics["throughput_per_s"], p.Metrics["latency_ms"] = tp, lat
		}
	}
	slower := filepath.Join(t.TempDir(), "slower.json")
	if err := writeJSON(slower, rep); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if code := compareFiles(&buf, out, slower); code != 1 {
		t.Errorf("comparing with a slower run exited %d, want 1:\n%s", code, buf.String())
	}
	if got := strings.Count(buf.String(), "worse"); got != 2*len(workloads) {
		t.Errorf("%d metrics judged worse, want %d:\n%s", got, 2*len(workloads), buf.String())
	}
	buf.Reset()
	if code := compareFiles(&buf, slower, out); code != 0 || strings.Count(buf.String(), "better") != 2*len(workloads) {
		t.Errorf("comparing the other way exited %d:\n%s", code, buf.String())
	}
}

// The harness drives its own step loop so that it can time set-up apart from
// steps; it must still be the product's step: for the same job and seed its
// per-step losses equal trainer.Run's bit for bit.
func TestHarnessStepLoopMatchesTrainerRun(t *testing.T) {
	const steps = 6
	spec := &trainSpec{fabric: fabricMailbox, vocab: 256, embDim: 16, hidden: 8, sentences: 4, window: 8}
	for _, sched := range []strategies.SchedMode{strategies.Sched2D, strategies.SchedNone} {
		job := spec.job(3, sched)
		s, err := newTrainSession(job, spec.fabric, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = s.run(steps)
		s.close()
		if err != nil {
			t.Fatal(err)
		}
		job.Steps = steps
		want, err := trainer.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Losses {
			if math.Float64bits(s.losses[i]) != math.Float64bits(want.Losses[i]) {
				t.Errorf("sched %d step %d: harness loss %v, trainer.Run %v", sched, i, s.losses[i], want.Losses[i])
			}
		}
		if s.tokens != want.TokensTrained {
			t.Errorf("sched %d: harness counted %d tokens, trainer.Run %d", sched, s.tokens, want.TokensTrained)
		}
	}
}

// The emulated link keeps payloads and per-link order, across tags, and
// holds a message for at least alpha + bytes/beta.
func TestLinkWorldOrderPayloadAndDelay(t *testing.T) {
	w, err := newLinkWorld(2, linkAlpha, linkBytesPerSec)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	a, b := w.Rank(0), w.Rank(1)

	const n = 200
	tags := []int{probeTag, probeTag + 1}
	for i := 0; i < n; i++ {
		if err := a.Send(1, tags[i%2], []int64{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Per (sender, tag) the mailbox is FIFO, so reading each tag in turn
	// sees that tag's messages in send order only if the link kept it.
	for i := 0; i < n; i++ {
		got, err := b.Recv(0, tags[i%2])
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := got.([]int64); !ok || len(v) != 1 || v[0] != int64(i) {
			t.Fatalf("message %d arrived as %v", i, got)
		}
	}

	big := make([]float32, 1<<18) // 1 MB
	big[0], big[len(big)-1] = 1.5, -2.5
	want := w.delay(int64(len(big) * 4))
	if want < 10*time.Millisecond {
		t.Fatalf("modelled delay of 1 MB is %v; the model is off", want)
	}
	start := time.Now()
	if err := a.Send(1, probeTag, big); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(0, probeTag)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < want {
		t.Errorf("1 MB arrived after %v, before the modelled %v", took, want)
	}
	if v, ok := got.([]float32); !ok || len(v) != len(big) || v[0] != 1.5 || v[len(v)-1] != -2.5 {
		t.Errorf("1 MB payload changed on the link")
	}
}

// Each forced-path probe takes the path it is named for, as the cluster's
// own Stats() see it.
func TestServePathProbesTakeTheirPath(t *testing.T) {
	const n = 25
	for _, path := range servePaths {
		_, before, after, err := probeServePath(path, n, newTracer("test"))
		if err != nil {
			t.Fatalf("%s: %v", path.name, err)
		}
		rows := int64(n * 4)
		if got := after.Exchanges - before.Exchanges; got != n*path.exchangesPerRequest {
			t.Errorf("%s: Exchanges grew by %d over %d lookups, want %d per lookup", path.name, got, n, path.exchangesPerRequest)
		}
		lruHits := after.Cache.Hits - before.Cache.Hits
		hotHits := after.Hot.Hits - before.Hot.Hits
		local := after.LocalRows - before.LocalRows
		remote := after.RemoteRows - before.RemoteRows
		var ok bool
		switch path.name {
		case "lru":
			ok = lruHits == rows && hotHits == 0 && local == 0 && remote == 0
		case "hot":
			ok = hotHits == rows && lruHits == 0 && local == 0 && remote == 0
		case "local":
			ok = local == rows && remote == 0 && lruHits == 0 && hotHits == 0
		case "remote":
			ok = remote == rows && local == 0 && lruHits == 0 && hotHits == 0
		}
		if !ok {
			t.Errorf("%s: over %d rows: lru hits %d, hot hits %d, local rows %d, remote rows %d",
				path.name, rows, lruHits, hotHits, local, remote)
		}
	}
}

// BENCHMARK.json at the repo root is the driver's view of this program; it
// must name the same workloads and metrics, with the same units, directions
// and bounds.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the program is sized for %d", spec.RunSeconds, refSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name || spec.Workloads[i].Why != wl.why {
			t.Errorf("workload %d is %+v, the program has %s: %s", i, spec.Workloads[i], wl.name, wl.why)
		}
	}
	for _, c := range []struct {
		what string
		got  []metric
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: %d metrics, the program has %d", c.what, len(c.got), len(c.want))
		}
		for i, d := range c.want {
			if g := c.got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s[%d] is %+v, the program has %+v", c.what, i, g, d)
			}
		}
	}
}
