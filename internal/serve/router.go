package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"embrace/internal/metrics"
	"embrace/internal/partition"
	"embrace/internal/tensor"
	"embrace/internal/trace"
)

// Typed serving errors. Callers branch on these with errors.Is.
var (
	// ErrOverloaded is returned at admission when the bounded queue is full:
	// the request fails fast instead of queuing unboundedly.
	ErrOverloaded = errors.New("serve: overloaded (admission queue full)")
	// ErrDeadline is returned when a request's deadline passes before the
	// driver computes its answer. Expired requests are dropped before the
	// exchange, so they never occupy an exchange slot.
	ErrDeadline = errors.New("serve: deadline exceeded")
	// ErrClosed is returned for requests that race or follow Close.
	ErrClosed = errors.New("serve: cluster closed")
)

// reqKind discriminates the two request types.
type reqKind int

const (
	kindLookup reqKind = iota
	kindPredict
)

// request is one admitted unit of work, owned by the driver after admission.
type request struct {
	kind     reqKind
	ids      []int64 // lookup: rows to fetch; predict: the token window
	deadline time.Time
	admitted time.Time
	done     chan response
}

// response carries a request's result back to its submitter.
type response struct {
	rows  [][]float32 // lookup
	token int64       // predict: argmax token
	prob  float32     // predict: its probability
	err   error
}

// reloadReq asks a driver to join the reload rendezvous between batches.
// The checkpoint itself travels via Cluster.pending, set before fan-out.
type reloadReq struct {
	done chan error
}

// Router is one driver's front end: it admits concurrent Lookup and Predict
// calls into that driver's bounded queue, where the driver goroutine
// micro-batches them. Each Router owns its admission queue, deadline gate,
// hot-row LRU, and stat block — drivers share nothing on the request path
// except the read-mostly hot set and their ranks' shards. All methods are
// safe for concurrent use.
type Router struct {
	c        *Cluster
	driver   int // the driver's rank == its tag plane
	queue    chan *request
	reloadCh chan *reloadReq
	cache    *lruCache // nil when caching is disabled
	ctr      counters

	closedMu chan struct{} // closed exactly once by close(); nil-check via select
}

func newRouter(c *Cluster, driver, depth int) *Router {
	r := &Router{
		c:        c,
		driver:   driver,
		queue:    make(chan *request, depth),
		reloadCh: make(chan *reloadReq),
		closedMu: make(chan struct{}),
	}
	r.ctr.latency = metrics.NewHistogram()
	r.ctr.queueWait = metrics.NewHistogram()
	r.cache = newLRUCache(c.cfg.CacheRows, &r.ctr.cache)
	return r
}

// Driver returns the rank this router fronts.
func (r *Router) Driver() int { return r.driver }

func (r *Router) close() { close(r.closedMu) }

func (r *Router) closed() bool {
	select {
	case <-r.closedMu:
		return true
	default:
		return false
	}
}

// driverStats snapshots this driver's own counters as a Stats value.
// Cluster-level fields (Packed, Reloads, Hot, CommPerOp) stay zero.
func (r *Router) driverStats() Stats {
	return Stats{
		Drivers:    1,
		Requests:   r.ctr.requests.Load(),
		Lookups:    r.ctr.lookups.Load(),
		Predicts:   r.ctr.predicts.Load(),
		Batches:    r.ctr.batches.Load(),
		Exchanges:  r.ctr.exchanges.Load(),
		Coalesced:  r.ctr.coalesced.Load(),
		LocalRows:  r.ctr.localRows.Load(),
		RemoteRows: r.ctr.remoteRows.Load(),
		Overloaded: r.ctr.overloaded.Load(),
		Expired:    r.ctr.expired.Load(),
		Cache:      r.ctr.cache.Snapshot(),
		Latency:    r.ctr.latency.Summary(),
		QueueWait:  r.ctr.queueWait.Summary(),
	}
}

// Lookup resolves the embedding row of every id, in order, including
// duplicates. The returned rows are private copies. Fails fast with
// ErrOverloaded when the admission queue is full and with ErrDeadline when
// ctx's deadline expires before the rows are resolved.
func (r *Router) Lookup(ctx context.Context, ids []int64) ([][]float32, error) {
	resp := r.do(ctx, &request{kind: kindLookup, ids: ids})
	return resp.rows, resp.err
}

// Predict mean-pools the window's embedding rows, runs the trunk, and
// returns the argmax next token with its probability — arithmetic identical
// to the training model's forward pass over the same checkpoint.
func (r *Router) Predict(ctx context.Context, window []int64) (int64, float32, error) {
	resp := r.do(ctx, &request{kind: kindPredict, ids: window})
	return resp.token, resp.prob, resp.err
}

// do admits one request and waits for its reply.
func (r *Router) do(ctx context.Context, req *request) response {
	for _, id := range req.ids {
		if id < 0 || id >= int64(r.c.vocab) {
			return response{err: fmt.Errorf("serve: id %d outside vocab [0, %d)", id, r.c.vocab)}
		}
	}
	if r.closed() {
		return response{err: ErrClosed}
	}
	if err := ctx.Err(); err != nil {
		return response{err: fmt.Errorf("%w: %v", ErrDeadline, err)}
	}
	if dl, ok := ctx.Deadline(); ok {
		req.deadline = dl
	}
	req.admitted = time.Now()
	req.done = make(chan response, 1)
	select {
	case r.queue <- req:
	default:
		r.ctr.overloaded.Add(1)
		return response{err: ErrOverloaded}
	}
	r.ctr.requests.Add(1)
	if req.kind == kindLookup {
		r.ctr.lookups.Add(1)
	} else {
		r.ctr.predicts.Add(1)
	}
	// The driver answers every admitted request, including during shutdown,
	// so this receive always completes.
	resp := <-req.done
	r.ctr.latency.ObserveDuration(time.Since(req.admitted))
	return resp
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

// driverLoop is a driver rank's life on its own plane: collect a micro-batch
// from its router, resolve it, reply; interleave reloads between batches; on
// Close, flush and release the plane's followers.
func (c *Cluster) driverLoop(n *node) {
	r := c.routers[n.plane]
	for {
		select {
		case <-c.closeCh:
			c.shutdown(n, r)
			return
		case rr := <-r.reloadCh:
			rr.done <- c.driverReload(n, r)
		case req := <-r.queue:
			batch := c.collectBatch(r, req)
			c.processBatch(n, r, batch)
		}
	}
}

// collectBatch waits up to BatchWindow for more requests after the first,
// capped at MaxBatch — the micro-batching that makes within-batch dedup (and
// the single exchange per batch) worth having.
func (c *Cluster) collectBatch(r *Router, first *request) []*request {
	batch := []*request{first}
	if c.cfg.MaxBatch == 1 {
		return batch
	}
	timer := time.NewTimer(c.cfg.BatchWindow)
	defer timer.Stop()
	for len(batch) < c.cfg.MaxBatch {
		select {
		case req := <-r.queue:
			batch = append(batch, req)
		case <-timer.C:
			return batch
		}
	}
	return batch
}

// shutdown releases the plane's followers and answers everything still
// queued on this driver.
func (c *Cluster) shutdown(n *node, r *Router) {
	if err := c.broadcastCtl(n, ctlShutdown); err != nil {
		c.fail(fmt.Errorf("serve: driver %d shutdown broadcast: %w", n.plane, err))
	}
	for {
		select {
		case req := <-r.queue:
			req.done <- response{err: ErrClosed}
		case rr := <-r.reloadCh:
			rr.done <- ErrClosed
		default:
			return
		}
	}
}

// driverReload conscripts this plane into the cluster-wide reload: broadcast
// ctlReload to the plane's followers, join the rendezvous (whose last
// arrival rebuilds every rank and flushes the hot set), then drop this
// driver's now-stale cache.
func (c *Cluster) driverReload(n *node, r *Router) error {
	if err := c.broadcastCtl(n, ctlReload); err != nil {
		return fmt.Errorf("serve: driver %d reload broadcast: %w", n.plane, err)
	}
	if err := c.reloadRendezvous(n); err != nil {
		return err
	}
	r.cacheClear()
	return nil
}

// processBatch answers one micro-batch: drop expired requests, dedup ids,
// resolve rows (cache, hot set, local shard, exchange), then compute and
// reply.
func (c *Cluster) processBatch(n *node, r *Router, batch []*request) {
	r.ctr.batches.Add(1)
	tr := c.tracers[n.rank]
	now := time.Now()
	r.ctr.queueWait.ObserveDuration(now.Sub(batch[0].admitted))
	tr.Record(trace.TrackCompute, "serve/queue-wait", -1, now.Sub(batch[0].admitted))

	// Deadline gate: an expired request is answered now and excluded, so it
	// never occupies an exchange slot.
	live := batch[:0]
	for _, req := range batch {
		if !req.deadline.IsZero() && now.After(req.deadline) {
			r.ctr.expired.Add(1)
			req.done <- response{err: ErrDeadline}
			continue
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}

	// Coalesce: the union of all ids, deduplicated in first-seen order.
	var need []int64
	seen := make(map[int64]struct{})
	total := 0
	for _, req := range live {
		for _, id := range req.ids {
			total++
			if _, ok := seen[id]; !ok {
				seen[id] = struct{}{}
				need = append(need, id)
			}
		}
	}
	r.ctr.coalesced.Add(int64(total - len(need)))

	rows, err := c.resolve(n, r, need)
	if err != nil {
		c.fail(err)
		for _, req := range live {
			req.done <- response{err: err}
		}
		return
	}

	c.reply(n, live, rows)
}

// resolve maps each unique id to its full embedding row: this driver's LRU
// first, then the cluster-wide replicated hot set, and only for what's left
// the shards (conscripting the plane when remote rows are involved). Every
// access feeds the hot set's frequency tracker, so rows any driver keeps
// seeing get promoted into replicas all drivers serve locally.
func (c *Cluster) resolve(n *node, r *Router, need []int64) (map[int64][]float32, error) {
	rows := make(map[int64][]float32, len(need))
	var miss []int64
	for _, id := range need {
		if row, ok := r.cacheGet(id); ok {
			rows[id] = row
			continue
		}
		if row, ok := c.hot.get(id); ok {
			rows[id] = row
			continue
		}
		miss = append(miss, id)
	}
	if len(miss) > 0 {
		tr := c.tracers[n.rank]
		span := tr.Begin(trace.TrackCompute, "serve/xchg", -1)
		fetched, err := c.fetchRows(n, r, miss)
		span.End()
		if err != nil {
			return nil, err
		}
		for id, row := range fetched {
			rows[id] = row
			r.cachePut(id, row)
		}
	}
	// One frequency update per batch over the deduplicated set, with every
	// resolved value in hand for promotion. Hot-set rows are bit-exact copies
	// of what this lookup path just served, so replica hits on any driver
	// return exactly what a shard fetch would.
	c.hot.touchAll(need, rows)
	return rows, nil
}

// fetchRows resolves misses from the shards. The row schemes route each id
// to its owner and skip the cross-rank exchange entirely when this driver's
// rank owns every miss; column-wise asks every rank for its column slice of
// every miss and reassembles (single-rank clusters short-circuit to a local
// fetch).
func (c *Cluster) fetchRows(n *node, r *Router, miss []int64) (map[int64][]float32, error) {
	ranks := c.cfg.Ranks
	reqLists := make([][]int64, ranks)
	switch c.cfg.Partition {
	case PartRowHash, PartConsistent:
		for _, id := range miss {
			owner := rowOwner(c.cfg.Partition, id, ranks)
			reqLists[owner] = append(reqLists[owner], id)
		}
	case PartColumn:
		for p := 0; p < ranks; p++ {
			reqLists[p] = miss
		}
	}

	remote := 0
	for p := 0; p < ranks; p++ {
		if p != n.rank {
			remote += len(reqLists[p])
		}
	}
	r.ctr.localRows.Add(int64(len(reqLists[n.rank])))
	r.ctr.remoteRows.Add(int64(remote))

	// Local fast path: every missed row lives in the driver's own shard, so
	// resolve straight from shard storage — no sparse packing, no exchange,
	// no follower conscription. Stats().Packed staying 0 is the observable
	// form of this elision.
	if remote == 0 {
		out := make(map[int64][]float32, len(reqLists[n.rank]))
		n.rs.mu.RLock()
		for _, id := range reqLists[n.rank] {
			src, err := n.rs.shard.payload(id)
			if err != nil {
				n.rs.mu.RUnlock()
				return nil, err
			}
			out[id] = append([]float32(nil), src...)
		}
		n.rs.mu.RUnlock()
		return out, nil
	}

	if err := c.broadcastCtl(n, ctlExchange); err != nil {
		return nil, fmt.Errorf("serve: driver %d exchange broadcast: %w", n.plane, err)
	}
	r.ctr.exchanges.Add(1)
	arena, err := c.exchange(n, reqLists)
	if err != nil {
		return nil, fmt.Errorf("serve: driver %d exchange: %w", n.plane, err)
	}

	out := make(map[int64][]float32, len(miss))
	var recv tensor.Sparse
	switch c.cfg.Partition {
	case PartRowHash, PartConsistent:
		// Sender p's arena shard holds reqLists[p]'s rows in request order.
		for p := 0; p < ranks; p++ {
			arena.ShardView(p, &recv)
			for k, id := range reqLists[p] {
				out[id] = append([]float32(nil), recv.Row(k)...)
			}
		}
	case PartColumn:
		// Every rank answered the same miss list with its column slice;
		// reassemble each row at the deterministic column offsets.
		for k, id := range miss {
			row := make([]float32, c.embDim)
			for p := 0; p < ranks; p++ {
				lo, hi := (partition.ColumnWise{}).Range(c.embDim, ranks, p)
				arena.ShardView(p, &recv)
				copy(row[lo:hi], recv.Row(k))
			}
			out[id] = row
		}
	}
	return out, nil
}

// reply computes each live request's answer from the resolved rows. All
// predict requests share one batched trunk forward; Infer is row-independent,
// so batching preserves bit-identity with a per-request forward.
func (c *Cluster) reply(n *node, live []*request, rows map[int64][]float32) {
	var predicts []*request
	for _, req := range live {
		if req.kind == kindPredict {
			predicts = append(predicts, req)
			continue
		}
		out := make([][]float32, len(req.ids))
		for i, id := range req.ids {
			out[i] = append([]float32(nil), rows[id]...)
		}
		req.done <- response{rows: out}
	}
	if len(predicts) == 0 {
		return
	}

	// The span closes before any predict reply goes out, so a caller that has
	// its answer also sees the span.
	span := c.tracers[n.rank].Begin(trace.TrackCompute, "serve/fwd", -1)

	// Mean-pool each window with exactly nn.Embedding.PoolLookup's
	// arithmetic: accumulate row*inv in window order.
	pooled := tensor.NewDense(len(predicts), c.embDim)
	for i, req := range predicts {
		dst := pooled.Row(i)
		if len(req.ids) == 0 {
			continue
		}
		inv := 1 / float32(len(req.ids))
		for _, tok := range req.ids {
			src := rows[tok]
			for d := 0; d < c.embDim; d++ {
				dst[d] += src[d] * inv
			}
		}
	}
	n.rs.mu.RLock()
	trunk := n.rs.trunk
	n.rs.mu.RUnlock()
	probs, err := trunk.Infer(pooled)
	span.End()
	if err != nil {
		for _, req := range predicts {
			req.done <- response{err: err}
		}
		return
	}
	for i, req := range predicts {
		row := probs.Row(i)
		best := 0
		for v := 1; v < len(row); v++ {
			if row[v] > row[best] {
				best = v
			}
		}
		req.done <- response{token: int64(best), prob: row[best]}
	}
}
