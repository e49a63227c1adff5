package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"embrace/internal/strategies"
	"embrace/internal/trace"
)

// The traced pass of a workload: short in-situ runs with spans on, then the
// isolated layer probes. It yields the per-layer metrics and gates nothing.
//
// The driver wants every per-layer metric from every workload, and a metric
// that was not measured would read the same 0 on every run. So every traced
// pass trains a model and then serves it (sealed, loaded, every row
// verified): a training workload serves what it trained under servedAs, a
// serving workload is preceded by the training of its model, trainedBy. The
// regime condition is the one of the workload's own family.

func runTraced(wl *workload, seed int64, seconds float64) (*passResult, error) {
	size := seconds / refSeconds
	tr := newTracer(wl.name)
	res := &passResult{Workload: wl.name, Traced: true, Metrics: map[string]value{}, tracer: tr}
	ts, ss := wl.train, wl.serve
	if ts == nil {
		ts = ss.trainedBy()
	} else {
		ss = ts.servedAs()
	}
	in, trunkShare, err := traceTraining(ts, seed, size, tr, res)
	if err != nil {
		return nil, err
	}
	exchanges, err := traceServing(ss, in, seed, size, tr, res)
	if err != nil {
		return nil, err
	}
	res.Regime = exchanges
	if wl.train != nil {
		res.Regime = trunkShare
	}
	if err := runProbes(wl, in.sealed, seed, size, tr, res); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	return res, nil
}

// phaseOf maps the span names the strategies' recorder hook emits to the
// strategies.phase_ms.* metric they are summed into.
func phaseOf(name string) string {
	switch name {
	case strategies.SpanFP:
		return "fp"
	case strategies.SpanBP:
		return "bp"
	case strategies.SpanLookup:
		return "lookup"
	case strategies.SpanEmbExchange:
		return "xchg_emb"
	case strategies.SpanPriorExchange:
		return "xchg_prior"
	case strategies.SpanDelayedExchange:
		return "xchg_delayed"
	case strategies.SpanVSplit:
		return "vsplit"
	case strategies.SpanHarvestDelayed:
		return "harvest"
	case strategies.SpanEmbUpdate, strategies.SpanPriorUpdate:
		return "opt"
	}
	if strings.HasPrefix(name, "xchg/dense:") {
		return "xchg_dense"
	}
	return ""
}

// computePhases are the phases that are CPU work of the step loop — what a
// background exchange can hide behind.
var computePhases = map[string]bool{"fp": true, "bp": true, "lookup": true, "vsplit": true, "opt": true}

// overlapShare is the share of rank 0's delayed-exchange span time that
// falls inside its compute-phase spans.
func overlapShare(spans []span) float64 {
	type interval struct{ lo, hi time.Duration }
	var compute []interval
	for _, s := range spans {
		if s.Rank == 0 && s.Lane == laneFore && computePhases[phaseOf(s.Name)] {
			compute = append(compute, interval{s.Start, s.Start + s.Dur})
		}
	}
	// Compute phases of one goroutine never overlap each other, so once
	// sorted they are a disjoint cover.
	sort.Slice(compute, func(i, j int) bool { return compute[i].lo < compute[j].lo })
	var delayed, covered time.Duration
	for _, s := range spans {
		if s.Rank != 0 || s.Lane != laneBack || phaseOf(s.Name) != "xchg_delayed" {
			continue
		}
		delayed += s.Dur
		lo, hi := s.Start, s.Start+s.Dur
		i := sort.Search(len(compute), func(i int) bool { return compute[i].hi > lo })
		for ; i < len(compute) && compute[i].lo < hi; i++ {
			covered += min(hi, compute[i].hi) - max(lo, compute[i].lo)
		}
	}
	return ratio(covered.Seconds(), delayed.Seconds())
}

// quarter is a session that has been warmed up and run for a quarter of the
// timed run's steps, with what those steps allocated.
type quarter struct {
	*trainSession
	mallocs, bytes uint64
}

// quarterRun builds a session, warms it up and runs n steps. The caller
// closes the session.
func quarterRun(spec *trainSpec, seed int64, sched strategies.SchedMode, warm, n int, tr *tracer) (*quarter, error) {
	var clock trace.Clock
	if tr != nil {
		clock = tr.now
	}
	s, err := warmTrainSession(spec.job(seed, sched), spec.fabric, clock, warm)
	if err != nil {
		return nil, err
	}
	mallocs0, bytes0 := memCounters()
	if err := s.run(n); err != nil {
		s.close()
		return nil, err
	}
	mallocs1, bytes1 := memCounters()
	return &quarter{trainSession: s, mallocs: mallocs1 - mallocs0, bytes: bytes1 - bytes0}, nil
}

// traceTraining runs spec three times for a quarter of its steps — spans
// off, spans on, and without scheduling — and sets the strategies, trainer
// and in-situ collective metrics. It returns the model the traced run
// trained, sealed as a serving input, and the trunk-share regime.
func traceTraining(spec *trainSpec, seed int64, size float64, tr *tracer, res *passResult) (*serveInput, *regime, error) {
	warm := scaled(spec.warmSteps, size, 1)
	n := scaled(spec.steps, size/4, 2)

	// Spans off: the reference for the tracing overhead and the loss digest,
	// and the source of the allocation counts.
	ref, err := quarterRun(spec, seed, strategies.Sched2D, warm, n, nil)
	if err != nil {
		return nil, nil, err
	}
	ref.close()
	refSteps := ref.stepSeconds[warm:]
	res.set("strategies.allocs_per_step", float64(ref.mallocs)/float64(n), n)
	res.set("strategies.alloc_mb_per_step", float64(ref.bytes)/float64(n)/1e6, n)
	res.set("trainer.step_ms_p50", 1e3*median(refSteps), n)
	res.set("trainer.step_ms_p95", 1e3*percentile(refSteps, 0.95), n)

	// Spans on, same seed and step count.
	s, err := quarterRun(spec, seed, strategies.Sched2D, warm, n, tr)
	if err != nil {
		return nil, nil, err
	}
	comm := s.commTotals()
	emb, trunk, digests, err := s.finish()
	s.close()
	if err != nil {
		return nil, nil, err
	}
	for r, rk := range s.ranks {
		tr.importRecorder(r, rk.tr.Spans())
	}

	res.Attempted += ref.steps + s.steps
	for i, l := range s.losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("step %d: loss %v is not finite", i, l))
		}
	}
	df, dn := checkDigests(digests)
	res.Failed += df
	res.Notes = append(res.Notes, dn...)
	equal := digestFloat64s(ref.losses) == digestFloat64s(s.losses)
	if !equal {
		res.Failed++
		res.Notes = append(res.Notes, "per-step losses of the traced and the untraced run differ")
	}
	res.LossDigest = fmt.Sprintf("%016x", digestFloat64s(s.losses))
	res.set("trainer.loss_digest_equal", boolValue(equal), s.steps)
	// Ratios of step times compare fastest steps, like the untraced pass.
	res.set("trainer.trace_overhead_pct", 100*(slices.Min(s.stepSeconds[warm:])/slices.Min(refSteps)-1), n)

	// Rank 0's self time per phase per step, and the regime condition.
	self := tr.selfTimes()
	phaseSeconds := map[string]float64{}
	for i, sp := range tr.spans {
		if sp.Rank == 0 && sp.Layer == "strategies" {
			if ph := phaseOf(sp.Name); ph != "" {
				phaseSeconds[ph] += self[i].Seconds()
			}
		}
	}
	for _, ph := range []string{"fp", "bp", "lookup", "xchg_emb", "xchg_prior", "xchg_delayed", "xchg_dense", "vsplit", "harvest", "opt"} {
		res.set("strategies.phase_ms."+ph, 1e3*phaseSeconds[ph]/float64(s.steps), s.steps)
	}
	res.set("strategies.overlap_share", overlapShare(tr.spans), s.steps)
	var stepTotal float64
	for _, sec := range s.stepSeconds {
		stepTotal += sec
	}
	share := ratio(phaseSeconds["fp"]+phaseSeconds["bp"], stepTotal)
	trunkShare := &regime{What: "trunk fp+bp share of rank-0 step time", Value: share,
		Min: spec.trunkShareMin, Max: spec.trunkShareMax, OK: share >= spec.trunkShareMin && share <= spec.trunkShareMax}

	res.set("collective.wire_bytes_per_step", float64(comm.PayloadBytes)/float64(s.steps), s.steps)
	res.set("collective.calls_per_step", float64(comm.Messages)/float64(s.steps*ranks), s.steps)
	res.set("collective.recv_blocked_share", comm.RecvSeconds/(stepTotal*ranks), s.steps)
	res.set("collective.faults_masked", float64(comm.FaultsMasked), s.steps)

	// Without scheduling: the base of the 2D gain, which only the emulated
	// link lets show. Both sides run with spans off.
	none, err := quarterRun(spec, seed, strategies.SchedNone, warm, n, nil)
	if err != nil {
		return nil, nil, err
	}
	none.close()
	res.Attempted += none.steps
	noSched := slices.Min(none.stepSeconds[warm:])
	res.set("strategies.nosched_step_ms", 1e3*noSched, n)
	res.set("strategies.sched2d_gain", noSched/slices.Min(refSteps), n)

	in, err := sealInput(emb, trunk, s.steps, 0)
	return in, trunkShare, err
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// openLoop sends lookups on a fixed schedule from one dispatcher goroutine,
// whether or not earlier ones have completed, and times each from when it
// was due, so a stall is charged to every request it delays. It returns the
// latencies in seconds, how late the dispatcher ran at worst, and the
// number of requests that failed.
func openLoop(s *serveSession, rate int, d time.Duration) (latency []float64, lateMax float64, sent, failed int) {
	total := int(d.Seconds() * float64(rate))
	cl := s.clients[0]
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(float64(i) / float64(rate) * float64(time.Second)))
		time.Sleep(time.Until(due))
		lateMax = max(lateMax, time.Since(due).Seconds())
		ids := append([]int64(nil), cl.nextIDs(s.spec.vocab)...)
		router := s.c.RouterAt(i % serveDrivers)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, err := router.Lookup(context.Background(), ids)
			lat := time.Since(due).Seconds()
			ok := err == nil && len(rows) == len(ids)
			for k := 0; ok && k < len(ids); k++ {
				ok = sameBits(rows[k], s.in.table.Row(int(ids[k])))
			}
			mu.Lock()
			if ok {
				latency = append(latency, lat)
			} else {
				failed++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return latency, lateMax, total, failed
}

// traceServing boots a cluster from in, warms it up, and runs spec's load a
// quarter as long with a span around every Lookup, then the open-loop
// diagnostic. It sets the in-situ serve metrics from the cluster's Stats()
// deltas and returns the exchange regime.
func traceServing(spec *serveSpec, in *serveInput, seed int64, size float64, tr *tracer, res *passResult) (*regime, error) {
	s, err := warmServeSession(spec, in, seed, scaled(spec.warmRequests, size, 20))
	if err != nil {
		return nil, err
	}
	// The cluster and its heap go before the probes measure anything.
	defer s.close()

	before := s.c.Stats()
	mallocs0, _ := memCounters()
	s.tr = tr
	s.closedLoop(scaled(spec.requests, size/4, 4))
	s.tr = nil
	mallocs1, _ := memCounters()
	after := s.c.Stats()
	closed, sent, failed := s.tally()
	exchanges := exchangeRegime(spec, before, after)

	batches := float64(after.Batches - before.Batches)
	requests := float64(after.Requests - before.Requests)
	rowsFetched := float64(after.LocalRows - before.LocalRows + after.RemoteRows - before.RemoteRows)
	lru := after.Cache
	lru.Hits -= before.Cache.Hits
	lru.Misses -= before.Cache.Misses
	hot := after.Hot
	hot.Hits -= before.Hot.Hits
	hot.Misses -= before.Hot.Misses
	res.set("serve.batch_size_mean", ratio(requests, batches), int(batches))
	res.set("serve.queue_wait_ms_p50", 1e3*after.QueueWait.P50, int(after.QueueWait.Count))
	res.set("serve.exchanges_per_batch", exchanges.Value, int(batches))
	res.set("serve.lru_hit_share", lru.HitRate(), int(lru.Hits+lru.Misses))
	res.set("serve.hot_hit_share", hot.HitRate(), int(hot.Hits+hot.Misses))
	res.set("serve.remote_row_share", ratio(float64(after.RemoteRows-before.RemoteRows), rowsFetched), int(rowsFetched))
	res.set("serve.coalesced_share", ratio(float64(after.Coalesced-before.Coalesced), requests*float64(spec.idsPerRequest)), int(requests))
	res.set("serve.allocs_per_lookup", ratio(float64(mallocs1-mallocs0), float64(sent)), sent)
	res.set("serve.lookup_ms_p99", 1e3*percentile(closed, 0.99), len(closed))
	res.set("serve.lookup_ms_p999", 1e3*percentile(closed, 0.999), len(closed))

	// Open-loop diagnostic, not a gate.
	open, late, openSent, openFailed := openLoop(s, openLoopRate, time.Duration(size*float64(openLoopSeconds)))
	res.set("serve.open_ms_p50", 1e3*median(open), len(open))
	res.set("serve.open_ms_p99", 1e3*percentile(open, 0.99), len(open))
	res.set("serve.gen_late_ms_max", 1e3*late, openSent)

	res.Attempted += sent + openSent
	if bad := failed + openFailed; bad > 0 {
		res.Failed += bad
		res.Notes = append(res.Notes, fmt.Sprintf("%d lookups failed or returned a wrong row (cluster error: %v)", bad, s.c.Err()))
	}
	return exchanges, nil
}
