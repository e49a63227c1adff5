package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"embrace/internal/checkpoint"
	"embrace/internal/nn"
	"embrace/internal/serve"
	"embrace/internal/strategies"
	"embrace/internal/tensor"
)

// serveInput is what a serving workload is given: a sealed checkpoint of a
// briefly trained model, the embedding table inside it (the reference every
// response row is compared with), and the loss that training reached.
type serveInput struct {
	sealed []byte
	table  *tensor.Dense
	loss   float64
}

// pretrain trains the workload's model for pretrainSteps on the in-process
// fabric with the harness step loop and seals the result as a checkpoint.
func pretrain(spec *serveSpec, seed int64) (*serveInput, error) {
	ts := spec.trainedBy()
	s, err := newTrainSession(ts.job(seed, strategies.Sched2D), ts.fabric, nil)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if err := s.run(pretrainSteps); err != nil {
		return nil, err
	}
	emb, trunk, _, err := s.finish()
	if err != nil {
		return nil, err
	}
	return sealInput(emb, trunk, pretrainSteps, mean(s.losses[pretrainSteps-10:]))
}

// sealInput seals a trained model as the checkpoint a cluster boots from.
func sealInput(emb *tensor.Dense, trunk *nn.Trunk, step int, loss float64) (*serveInput, error) {
	var buf bytes.Buffer
	if err := checkpoint.Save(&buf, modelCheckpoint(step, emb, trunk)); err != nil {
		return nil, err
	}
	return &serveInput{sealed: buf.Bytes(), table: emb, loss: loss}, nil
}

// modelCheckpoint is the checkpoint serve.New boots from: the embedding
// table as "emb" next to the trunk's parameters.
func modelCheckpoint(step int, emb *tensor.Dense, trunk *nn.Trunk) *checkpoint.Checkpoint {
	ck := &checkpoint.Checkpoint{Step: step, Params: map[string]*tensor.Dense{"emb": emb}}
	for _, p := range trunk.Params() {
		ck.Params[p.Name] = p.Tensor
	}
	return ck
}

func (spec *serveSpec) config() serve.Config {
	return serve.Config{
		Ranks: ranks, Drivers: serveDrivers, Partition: serve.PartConsistent, TCP: true,
		CacheRows: spec.cacheRows, HotRows: spec.hotRows, MaxBatch: 32,
	}
}

// serveSession is a booted cluster with its closed-loop clients. Client c
// pins to driver c mod Drivers and keeps one id stream across phases.
type serveSession struct {
	spec    *serveSpec
	in      *serveInput
	c       *serve.Cluster
	clients []*serveClient
	tr      *tracer // spans around each Lookup when set
}

type serveClient struct {
	id      int
	rng     *rand.Rand
	zipf    *rand.Zipf
	ids     []int64
	latency []float64 // seconds, one per completed request of the phase
	sent    int
	failed  int
}

func newServeSession(spec *serveSpec, in *serveInput, seed int64) (*serveSession, error) {
	ck, err := checkpoint.Load(bytes.NewReader(in.sealed))
	if err != nil {
		return nil, err
	}
	c, err := serve.New(ck, spec.config())
	if err != nil {
		return nil, err
	}
	s := &serveSession{spec: spec, in: in, c: c}
	for i := 0; i < serveClients; i++ {
		rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
		cl := &serveClient{id: i, rng: rng, ids: make([]int64, spec.idsPerRequest)}
		if spec.zipf {
			cl.zipf = rand.NewZipf(rng, zipfS, zipfV, uint64(spec.vocab-1))
		}
		s.clients = append(s.clients, cl)
	}
	return s, nil
}

func (cl *serveClient) nextIDs(vocab int) []int64 {
	for k := range cl.ids {
		if cl.zipf != nil {
			cl.ids[k] = int64(cl.zipf.Uint64())
		} else {
			cl.ids[k] = cl.rng.Int63n(int64(vocab))
		}
	}
	return cl.ids
}

// lookup sends one request and checks every returned row bit for bit against
// the checkpoint table, after the latency has been stamped.
func (s *serveSession) lookup(cl *serveClient) {
	ids := cl.nextIDs(s.spec.vocab)
	router := s.c.RouterAt(cl.id % serveDrivers)
	start := time.Now()
	rows, err := router.Lookup(context.Background(), ids)
	lat := time.Since(start)
	if s.tr != nil {
		s.tr.add(span{Name: "Lookup", Layer: "serve", ID: cl.sent, Parent: -1,
			Start: start.Sub(s.tr.epoch), Dur: lat, Rank: cl.id})
	}
	cl.sent++
	if err != nil || len(rows) != len(ids) {
		cl.failed++
		return
	}
	cl.latency = append(cl.latency, lat.Seconds())
	for i, id := range ids {
		if !sameBits(rows[i], s.in.table.Row(int(id))) {
			cl.failed++
			return
		}
	}
}

// closedLoop runs every client back to back — the next request only after
// the previous reply, as a frontend that waits for its embeddings does —
// until each has sent `requests`, and returns the wall time in seconds.
func (s *serveSession) closedLoop(requests int) (elapsed float64) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, cl := range s.clients {
		cl.latency, cl.sent, cl.failed = cl.latency[:0], 0, 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cl.sent < requests {
				s.lookup(cl)
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// tally merges the clients' last phase.
func (s *serveSession) tally() (latency []float64, sent, failed int) {
	for _, cl := range s.clients {
		latency = append(latency, cl.latency...)
		sent += cl.sent
		failed += cl.failed
	}
	return latency, sent, failed
}

func (s *serveSession) close() { s.c.Close() }

// warmServeSession boots a cluster — checkpoint decode, serve.New — and
// runs a warm-up load that fills the caches and grows the buffers.
func warmServeSession(spec *serveSpec, in *serveInput, seed int64, warm int) (*serveSession, error) {
	s, err := newServeSession(spec, in, seed)
	if err != nil {
		return nil, err
	}
	s.closedLoop(warm)
	if _, _, failed := s.tally(); failed > 0 {
		err := fmt.Errorf("%d warm-up requests failed (cluster error: %v)", failed, s.c.Err())
		s.close()
		return nil, err
	}
	return s, nil
}

// exchangeRegime is the serving regime condition over a Stats delta.
func exchangeRegime(spec *serveSpec, before, after serve.Stats) *regime {
	v := ratio(float64(after.Exchanges-before.Exchanges), float64(after.Batches-before.Batches))
	return &regime{What: "Exchanges/Batches", Value: v, Min: spec.exchMin, Max: spec.exchMax,
		OK: v >= spec.exchMin && v <= spec.exchMax}
}

// segments is how many equal parts a serving run's timed requests are sent
// in.
const segments = 5

// runServe is the untraced pass of a serving workload. The timed requests
// are sent in `segments` equal parts; each gives a throughput, a p50 and a
// p95, and the run reports the median part, so one stall does not move the
// result. The tail is the p95 because the p99 sits on a knife-edge here:
// about 1% of serve_cold's lookups land in 30-40 ms GC stalls over the
// growing mailbox table, so a segment's p99 reads 3.5 ms or 15 ms depending
// on which side of 1% it fell. The traced pass reports p99 and p99.9.
func runServe(wl *workload, seed int64, seconds float64) (*passResult, error) {
	spec := wl.serve
	size := seconds / refSeconds
	in, err := pretrain(spec, seed)
	if err != nil {
		return nil, fmt.Errorf("pretrain: %w", err)
	}

	base := liveHeap()
	s, setups, err := setUpRepeated(func() (*serveSession, error) {
		return warmServeSession(spec, in, seed, scaled(spec.warmRequests, size, 20))
	})
	if err != nil {
		return nil, err
	}
	defer s.close()

	before := s.c.Stats()
	var throughput, p50, p95 []float64
	sent, failed, completed := 0, 0, 0
	runtime.GC()
	for i := 0; i < segments; i++ {
		elapsed := s.closedLoop(scaled(spec.requests, size/segments, 4))
		latency, n, bad := s.tally()
		sent, failed, completed = sent+n, failed+bad, completed+len(latency)
		throughput = append(throughput, float64(len(latency))/elapsed)
		p50 = append(p50, median(latency))
		p95 = append(p95, percentile(latency, 0.95))
	}
	retained := float64(liveHeap()) - float64(base)

	res := &passResult{Workload: wl.name, Attempted: sent, Failed: failed, Metrics: map[string]value{},
		Regime: exchangeRegime(spec, before, s.c.Stats())}
	if failed > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d of %d lookups failed or returned a wrong row (cluster error: %v)", failed, sent, s.c.Err()))
	}
	res.set("setup_s", slices.Min(setups), len(setups))
	res.set("throughput_per_s", median(throughput), completed)
	res.set("latency_ms", 1e3*median(p50), completed)
	res.set("latency_ms_tail", 1e3*median(p95), completed)
	res.set("final_loss", in.loss, 10)
	res.set("retained_heap_mb", retained/1e6, 1)
	return res, nil
}
