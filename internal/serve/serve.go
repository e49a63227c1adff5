// Package serve turns a training checkpoint into a multi-rank inference
// service — the serving counterpart of the trainer. The mechanisms are the
// paper's, repurposed: the embedding table is partitioned across ranks
// (row-hash, consistent-hash, or column-wise, §4.1.1), remote rows are
// resolved through the Communicator's sparse AlltoAll, and repeated ids
// within a micro-batch are deduplicated before the exchange — the serving
// analogue of Algorithm 1's gradient coalescing. The dense trunk is small
// and replicated, so only the sparse lookups cross ranks.
//
// Topology: a configurable driver set fronts the cluster. Each driver rank
// (ranks 0..Drivers-1) runs its own ingress — an independent admission
// queue, micro-batching window with dedup, and hot-row LRU — and conscripts
// the other ranks only when a batch misses rows it does not hold. The
// control protocol is the same stepped SPMD exchange whichever driver runs
// it: one []int64 AlltoAll of requested ids followed by one sparse AlltoAll
// of the rows, issued at monotonically increasing steps. Concurrent drivers
// never collide because each driver's exchanges live in their own tag
// plane: plane d's per-rank Communicators are built with
// collective.WithEpoch(d), so two drivers conscripting the same ranks at
// the same moment address disjoint tags. Every rank therefore runs one
// driver loop (if it is a driver) plus one follower loop per remote driver,
// all over the same Transport — the fabric can be the in-process world,
// real TCP sockets, or the chaos wrapper with no code change.
//
// On top of the driver set sits the hot-shard replication manager (hotSet):
// an access-frequency tracker promotes Zipf-hot rows into a replica set
// every ingress serves locally, so the popular head of the vocabulary never
// crosses the fabric regardless of which rank owns it or which driver
// admits the request.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"embrace/internal/checkpoint"
	"embrace/internal/collective"
	"embrace/internal/comm"
	"embrace/internal/metrics"
	"embrace/internal/nn"
	"embrace/internal/partition"
	"embrace/internal/tensor"
	"embrace/internal/trace"
)

// Partitioning schemes the serving shards support.
const (
	// PartRowHash shards full rows by token id modulo ranks: each lookup
	// touches one rank, but the Zipf head concentrates on whichever ranks
	// own hot rows.
	PartRowHash = "row-hash"
	// PartColumn shards every row's columns evenly: each lookup touches all
	// ranks and each contributes 1/n of the row — EmbRace's balanced layout.
	PartColumn = "column"
	// PartConsistent shards full rows on a consistent-hash ring
	// (partition.ConsistentHash): like row-hash, one owner per row, but
	// ownership is stable under resizing — growing the rank set moves only
	// the arcs the new rank captures instead of reshuffling everything.
	PartConsistent = "consistent-hash"
)

// Config parameterizes a serving cluster.
type Config struct {
	// Ranks is the number of serving ranks (default 1).
	Ranks int
	// Drivers is how many ranks front the cluster as ingresses (default 1,
	// clamped to Ranks). Ranks 0..Drivers-1 each run an independent
	// admission queue, micro-batcher, and hot-row LRU; their conscripted
	// exchanges ride per-driver tag planes so they never collide.
	Drivers int
	// Partition selects the embedding layout: PartRowHash (default),
	// PartColumn, or PartConsistent.
	Partition string
	// CacheRows bounds each driver's hot-row LRU cache; 0 disables caching.
	CacheRows int
	// HotRows bounds the replicated hot set shared by all drivers; 0
	// disables hot-shard replication. Rows accessed HotPromote times are
	// promoted into it and served by every ingress without touching the
	// fabric; reload invalidates every replica.
	HotRows int
	// HotPromote is how many accesses promote a row into the hot set
	// (default 3).
	HotPromote int
	// MaxBatch caps how many requests one micro-batch coalesces (default 32).
	MaxBatch int
	// BatchWindow is how long a driver waits for stragglers after the
	// first request of a batch arrives (default 200µs).
	BatchWindow time.Duration
	// QueueDepth bounds each driver's admission queue (default 256). A full
	// queue fails fast with ErrOverloaded.
	QueueDepth int
	// RecvTimeout bounds blocking receives on the fabric; 0 blocks forever.
	RecvTimeout time.Duration
	// TCP, when set, boots the cluster over real localhost TCP sockets
	// (comm.NewTCPWorld) instead of the in-process mailbox world — the
	// fabric the scale harness measures. Incompatible with Chaos.
	TCP bool
	// Chaos, when non-nil, builds the cluster over a fault-injecting fabric
	// (comm.NewChaosWorld) instead of the plain in-process world.
	Chaos *comm.FaultPlan
	// Trace enables per-rank trace.Recorder span collection.
	Trace bool
	// TraceClock overrides the trace clock (tests); nil uses wall time.
	TraceClock trace.Clock
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
	if c.Drivers <= 0 {
		c.Drivers = 1
	}
	if c.Drivers > c.Ranks {
		c.Drivers = c.Ranks
	}
	if c.Partition == "" {
		c.Partition = PartRowHash
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 200 * time.Microsecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	return c
}

// fabric abstracts the in-process worlds and the TCP world a cluster can
// run on.
type fabric interface {
	Rank(i int) comm.Transport
	Close()
}

// Cluster is a running serving deployment: N ranks over one fabric, a loaded
// checkpoint, and one router per driver. Create with New, stop with Close.
type Cluster struct {
	cfg   Config
	world fabric
	chaos *comm.ChaosWorld // == world when chaotic, for Injected()

	// routers holds one front end per driver; nextRouter round-robins the
	// cluster-level Lookup/Predict entry points across them.
	routers    []*Router
	nextRouter atomic.Int64

	// ranks holds each rank's shard and trunk, shared by every tag plane's
	// node on that rank and rebuilt in place on reload.
	ranks []*rankState

	// hot is the cluster-wide replication manager; nil when HotRows == 0.
	hot *hotSet

	vocab, embDim int

	// pending hands the next checkpoint to the reload rendezvous.
	pendingMu sync.Mutex
	pending   *checkpoint.Checkpoint

	// reloadMu serializes Reload calls; rv is the cluster-wide quiesce
	// point every plane member joins before the rebuild.
	reloadMu sync.Mutex
	rv       *rendezvous

	// Per-rank instrumentation, indexed by fabric rank and shared by that
	// rank's communicators across all tag planes (both are concurrency-safe).
	recs    []*metrics.OpRecorder
	tracers []*trace.Recorder

	// Cluster-level counters; per-driver counters live on each Router.
	packed, reloads atomic.Int64

	closeOnce sync.Once
	closeCh   chan struct{}
	wg        sync.WaitGroup

	// errMu guards the first fatal per-rank error.
	errMu sync.Mutex
	err   error
}

// counters is one driver's atomic stat block.
type counters struct {
	requests, lookups, predicts atomic.Int64
	batches, exchanges          atomic.Int64
	coalesced                   atomic.Int64
	localRows, remoteRows       atomic.Int64
	overloaded, expired         atomic.Int64
	cache                       metrics.CacheCounters
	latency                     *metrics.Histogram
	queueWait                   *metrics.Histogram
}

// Stats is a point-in-time snapshot of serving counters. Cluster.Stats
// returns the cluster-wide aggregate — per-driver counters summed, latency
// histograms merged exactly — and Cluster.DriverStats returns one ingress's
// own slice of it.
type Stats struct {
	// Drivers is how many ingresses the snapshot aggregates (1 for a
	// DriverStats view).
	Drivers int
	// Requests admitted, split into Lookups and Predicts.
	Requests, Lookups, Predicts int64
	// Batches processed; Exchanges is how many needed a cross-rank
	// conscription (a batch satisfied by cache + replicas + local shard
	// skips it).
	Batches, Exchanges int64
	// Coalesced counts duplicate ids removed by within-batch dedup.
	Coalesced int64
	// Packed counts rows packed into sparse exchange payloads across all
	// ranks and planes. Driver-owned and hot-replicated lookups resolve
	// straight from local storage and never pack, so a workload the
	// ingresses can satisfy alone keeps this 0.
	Packed int64
	// LocalRows and RemoteRows count rows resolved from a driver's own
	// shard versus fetched from peers.
	LocalRows, RemoteRows int64
	// Overloaded counts admissions refused with ErrOverloaded; Expired
	// counts admitted requests dropped at their deadline; Reloads counts
	// completed checkpoint swaps.
	Overloaded, Expired, Reloads int64
	// Cache aggregates the drivers' hot-row LRU hit/miss/eviction counts.
	Cache metrics.CacheStats
	// Hot is the hot-shard replication manager's snapshot (zero when
	// replication is disabled).
	Hot HotStats
	// Latency digests request latency (admission to reply); QueueWait the
	// time batches spent waiting for a driver. Aggregates are exact
	// histogram merges, not percentile averages.
	Latency, QueueWait metrics.Summary
	// CommPerOp folds per-op communication counters across all ranks.
	CommPerOp map[string]metrics.OpStats
}

// New boots a serving cluster from a checkpoint. The checkpoint must hold
// the facade's parameter set ("emb", "w1", "b1", "w2", "b2"); optimizer state
// is ignored. The returned cluster is live: its routers accept requests.
func New(ck *checkpoint.Checkpoint, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	switch cfg.Partition {
	case PartRowHash, PartColumn, PartConsistent:
	default:
		return nil, fmt.Errorf("serve: unknown partition %q (want %q, %q or %q)",
			cfg.Partition, PartRowHash, PartColumn, PartConsistent)
	}
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	emb := ck.Params["emb"]
	if emb == nil || emb.Dims() != 2 {
		return nil, fmt.Errorf("serve: checkpoint has no [vocab x dim] %q table", "emb")
	}

	var world fabric
	var chaos *comm.ChaosWorld
	switch {
	case cfg.Chaos != nil && cfg.TCP:
		return nil, errors.New("serve: chaos injection over the TCP fabric is unsupported")
	case cfg.Chaos != nil:
		cw, err := comm.NewChaosWorld(cfg.Ranks, *cfg.Chaos)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if cfg.RecvTimeout > 0 {
			cw.SetRecvTimeout(cfg.RecvTimeout)
		}
		world, chaos = cw, cw
	case cfg.TCP:
		w, err := comm.NewTCPWorld(cfg.Ranks)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if cfg.RecvTimeout > 0 {
			w.SetRecvTimeout(cfg.RecvTimeout)
		}
		world = w
	default:
		w, err := comm.NewWorld(cfg.Ranks)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if cfg.RecvTimeout > 0 {
			w.SetRecvTimeout(cfg.RecvTimeout)
		}
		world = w
	}

	c := &Cluster{
		cfg:     cfg,
		world:   world,
		chaos:   chaos,
		vocab:   emb.Dim(0),
		embDim:  emb.Dim(1),
		hot:     newHotSet(cfg.HotRows, cfg.HotPromote),
		ranks:   make([]*rankState, cfg.Ranks),
		rv:      newRendezvous(cfg.Drivers * cfg.Ranks),
		recs:    make([]*metrics.OpRecorder, cfg.Ranks),
		tracers: make([]*trace.Recorder, cfg.Ranks),
		closeCh: make(chan struct{}),
	}

	for r := 0; r < cfg.Ranks; r++ {
		rs := &rankState{}
		if err := rs.load(cfg, r, ck); err != nil {
			world.Close()
			return nil, err
		}
		c.ranks[r] = rs

		c.recs[r] = metrics.NewOpRecorder()
		if cfg.Trace {
			opts := []trace.RecorderOption{}
			if cfg.TraceClock != nil {
				opts = append(opts, trace.WithClock(cfg.TraceClock))
			}
			tr := trace.NewRecorder(r, opts...)
			tr.RouteOp("serve/req", trace.TrackNetwork)
			tr.RouteOp("serve/rows", trace.TrackNetwork)
			tr.RouteOp("serve/ctl", trace.TrackNetwork)
			c.tracers[r] = tr
		}
	}

	c.routers = make([]*Router, cfg.Drivers)
	for d := 0; d < cfg.Drivers; d++ {
		c.routers[d] = newRouter(c, d, cfg.QueueDepth)
	}

	// One node per (tag plane, rank): plane d's communicators carry world
	// epoch d, so driver d's stepped exchanges are invisible to every other
	// plane even though all planes share each rank's Transport.
	for d := 0; d < cfg.Drivers; d++ {
		for r := 0; r < cfg.Ranks; r++ {
			cm := collective.NewCommunicator(world.Rank(r),
				collective.WithEpoch(d),
				collective.WithObserver(collective.MultiObserver(c.recs[r], c.tracers[r])))
			node := c.buildNode(cm, d)
			c.wg.Add(1)
			if r == d {
				go func() { defer c.wg.Done(); c.driverLoop(node) }()
			} else {
				go func() { defer c.wg.Done(); c.followerLoop(node) }()
			}
		}
	}
	return c, nil
}

// Router returns the first driver's front end.
func (c *Cluster) Router() *Router { return c.routers[0] }

// RouterAt returns driver d's front end.
func (c *Cluster) RouterAt(d int) *Router { return c.routers[d] }

// Drivers returns the number of ingress drivers.
func (c *Cluster) Drivers() int { return len(c.routers) }

// route picks the next ingress round-robin — the cluster-level entry
// points' stand-in for an external load balancer.
func (c *Cluster) route() *Router {
	if len(c.routers) == 1 {
		return c.routers[0]
	}
	i := uint64(c.nextRouter.Add(1))
	return c.routers[i%uint64(len(c.routers))]
}

// Lookup resolves embedding rows via the next driver round-robin; see
// Router.Lookup.
func (c *Cluster) Lookup(ctx context.Context, ids []int64) ([][]float32, error) {
	return c.route().Lookup(ctx, ids)
}

// Predict runs the trunk over a pooled token window via the next driver
// round-robin; see Router.Predict.
func (c *Cluster) Predict(ctx context.Context, window []int64) (int64, float32, error) {
	return c.route().Predict(ctx, window)
}

// Stats snapshots the cluster-wide aggregate: every driver's counters
// summed, their latency histograms merged exactly (metrics.Histogram.Merge
// preserves percentile fidelity), plus the cluster-level packing, reload,
// and hot-set counters.
func (c *Cluster) Stats() Stats {
	agg := Stats{
		Drivers: len(c.routers),
		Packed:  c.packed.Load(),
		Reloads: c.reloads.Load(),
		Hot:     c.hot.snapshot(),
	}
	lat, qw := metrics.NewHistogram(), metrics.NewHistogram()
	for _, r := range c.routers {
		d := r.driverStats()
		agg.Requests += d.Requests
		agg.Lookups += d.Lookups
		agg.Predicts += d.Predicts
		agg.Batches += d.Batches
		agg.Exchanges += d.Exchanges
		agg.Coalesced += d.Coalesced
		agg.LocalRows += d.LocalRows
		agg.RemoteRows += d.RemoteRows
		agg.Overloaded += d.Overloaded
		agg.Expired += d.Expired
		agg.Cache.Hits += d.Cache.Hits
		agg.Cache.Misses += d.Cache.Misses
		agg.Cache.Evictions += d.Cache.Evictions
		lat.Merge(r.ctr.latency)
		qw.Merge(r.ctr.queueWait)
	}
	agg.Latency = lat.Summary()
	agg.QueueWait = qw.Summary()

	per := make(map[string]metrics.OpStats)
	for _, rec := range c.recs {
		for op, s := range rec.PerOp() {
			per[op] = per[op].Add(s)
		}
	}
	agg.CommPerOp = per
	return agg
}

// DriverStats snapshots one ingress's own counters: the per-driver slice of
// Stats. Cluster-level fields (Packed, Reloads, Hot, CommPerOp) are zero —
// they are not attributable to a single driver.
func (c *Cluster) DriverStats(d int) Stats {
	return c.routers[d].driverStats()
}

// Tracers returns the per-rank trace recorders (nil entries when tracing is
// off), for span inspection and Chrome-trace export.
func (c *Cluster) Tracers() []*trace.Recorder { return c.tracers }

// FaultsInjected reports the chaos fabric's injected-fault counts, or nil
// when the cluster runs on a fault-free fabric.
func (c *Cluster) FaultsInjected() map[string]int64 {
	if c.chaos == nil {
		return nil
	}
	return c.chaos.Injected()
}

// Err returns the first fatal rank error, if any.
func (c *Cluster) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

func (c *Cluster) fail(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
}

// Reload swaps in a new checkpoint with zero downtime: every driver finishes
// its in-flight batch, all planes quiesce at the reload rendezvous, every
// rank rebuilds its shard and trunk from the new snapshot, and every
// driver's LRU cache plus the whole replicated hot set are invalidated —
// after Reload returns, every response from every ingress is computed from
// the new checkpoint, exactly as a cold restart would compute it. The
// checkpoint is validated (shape agreement, same vocab/dim) before any rank
// commits to it.
func (c *Cluster) Reload(ck *checkpoint.Checkpoint) error {
	if err := ck.Validate(); err != nil {
		return err
	}
	emb := ck.Params["emb"]
	if emb == nil || emb.Dims() != 2 || emb.Dim(0) != c.vocab || emb.Dim(1) != c.embDim {
		return fmt.Errorf("serve: reload checkpoint shape mismatch (want [%d x %d] %q)", c.vocab, c.embDim, "emb")
	}
	for _, name := range []string{"w1", "b1", "w2", "b2"} {
		if ck.Params[name] == nil {
			return fmt.Errorf("serve: reload checkpoint missing trunk param %q", name)
		}
	}

	c.reloadMu.Lock()
	defer c.reloadMu.Unlock()
	c.pendingMu.Lock()
	c.pending = ck
	c.pendingMu.Unlock()

	// Fan the reload to every driver; each broadcasts ctlReload on its own
	// plane and joins the rendezvous, so every plane member quiesces.
	reqs := make([]*reloadReq, len(c.routers))
	for d, r := range c.routers {
		rr := &reloadReq{done: make(chan error, 1)}
		reqs[d] = rr
		select {
		case r.reloadCh <- rr:
		case <-c.closeCh:
			return ErrClosed
		}
	}
	var first error
	for _, rr := range reqs {
		select {
		case err := <-rr.done:
			if err != nil && first == nil {
				first = err
			}
		case <-c.closeCh:
			return ErrClosed
		}
	}
	return first
}

// Close shuts the cluster down: pending requests are answered with ErrClosed,
// followers are released, and the fabric is torn down. Idempotent.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		for _, r := range c.routers {
			r.close()
		}
		close(c.closeCh)
	})
	c.wg.Wait()
	c.world.Close()
}

// ---------------------------------------------------------------------------
// Per-rank state.
// ---------------------------------------------------------------------------

// rankState is one rank's shard and trunk replica, shared by every tag
// plane's node on that rank. Reads take the read lock; the reload rendezvous
// rebuilds under the write lock while every plane is quiesced, so the lock
// is uncontended on the serving path.
type rankState struct {
	mu    sync.RWMutex
	shard *shard
	trunk *nn.Trunk
}

// load (re)builds the rank's shard and trunk from a checkpoint. Everything
// is deep-copied so the caller's checkpoint stays untouched and two reloads
// never share tensors.
func (rs *rankState) load(cfg Config, rank int, ck *checkpoint.Checkpoint) error {
	for _, name := range []string{"w1", "b1", "w2", "b2"} {
		if ck.Params[name] == nil {
			return fmt.Errorf("serve: checkpoint missing trunk param %q", name)
		}
	}
	trunk := &nn.Trunk{
		W1: ck.Params["w1"].Clone(),
		B1: ck.Params["b1"].Clone(),
		W2: ck.Params["w2"].Clone(),
		B2: ck.Params["b2"].Clone(),
	}
	sh, err := newShard(ck.Params["emb"], cfg.Partition, cfg.Ranks, rank)
	if err != nil {
		return err
	}
	rs.mu.Lock()
	rs.shard, rs.trunk = sh, trunk
	rs.mu.Unlock()
	return nil
}

// node is one (tag plane, rank) participant: its epoch-tagged communicator,
// a pointer to the rank's shared state, plus the per-op-family sequence
// counters it passes as the step of each collective, which keep it in
// lockstep with its plane's driver.
type node struct {
	cm    *collective.Communicator
	rank  int // fabric rank
	plane int // driver plane (== the driver's rank)
	rs    *rankState

	ctlSeq, xSeq, reloadSeq int

	// Exchange scratch, reused across conscriptions: the per-destination
	// packed row payloads and the receive arena of the sparse AlltoAll. Only
	// the node's own goroutine touches them.
	send     []tensor.Sparse
	sendPtrs []*tensor.Sparse
	arena    collective.SparseShards
}

// buildNode wires one plane member to its rank's shared state.
func (c *Cluster) buildNode(cm *collective.Communicator, plane int) *node {
	n := &node{cm: cm, rank: cm.Rank(), plane: plane, rs: c.ranks[cm.Rank()]}
	n.send = make([]tensor.Sparse, c.cfg.Ranks)
	n.sendPtrs = make([]*tensor.Sparse, c.cfg.Ranks)
	for i := range n.send {
		n.sendPtrs[i] = &n.send[i]
	}
	return n
}

// ---------------------------------------------------------------------------
// Embedding shards.
// ---------------------------------------------------------------------------

// shard is one rank's slice of the embedding table. For the row schemes it
// holds the full rows it owns; for column-wise it holds every row's [lo, hi)
// column slice. fetch answers requests in request order so a driver can
// zip ids with rows positionally.
type shard struct {
	part    string
	ranks   int
	rank    int
	vocab   int
	dim     int // full embedding width
	lo, hi  int // owned column range (column-wise; [0, dim) for row schemes)
	rows    map[int64][]float32
	columns *tensor.Dense // [vocab x (hi-lo)] (column-wise)
}

// rowOwner returns the rank holding id's full row under a row scheme.
func rowOwner(part string, id int64, ranks int) int {
	if part == PartConsistent {
		return partition.ConsistentHash{}.Owner(id, ranks)
	}
	return (partition.RowHash{}).Owner(id, ranks)
}

func newShard(emb *tensor.Dense, part string, ranks, rank int) (*shard, error) {
	vocab, dim := emb.Dim(0), emb.Dim(1)
	s := &shard{part: part, ranks: ranks, rank: rank, vocab: vocab, dim: dim, lo: 0, hi: dim}
	switch part {
	case PartRowHash, PartConsistent:
		s.rows = make(map[int64][]float32)
		for tok := 0; tok < vocab; tok++ {
			if rowOwner(part, int64(tok), ranks) == rank {
				s.rows[int64(tok)] = append([]float32(nil), emb.Row(tok)...)
			}
		}
	case PartColumn:
		lo, hi := partition.ColumnWise{}.Range(dim, ranks, rank)
		s.lo, s.hi = lo, hi
		cols := tensor.NewDense(vocab, hi-lo)
		for tok := 0; tok < vocab; tok++ {
			copy(cols.Row(tok), emb.Row(tok)[lo:hi])
		}
		s.columns = cols
	default:
		return nil, fmt.Errorf("serve: unknown partition %q", part)
	}
	return s, nil
}

// width is the number of columns this shard contributes per row.
func (s *shard) width() int { return s.hi - s.lo }

// owner returns the rank holding id's full row (row schemes only).
func (s *shard) owner(id int64) int { return rowOwner(s.part, id, s.ranks) }

// payload returns the shard's stored values for one id without packing:
// a direct view into shard storage, valid until the next reload. Unowned or
// out-of-range ids are a protocol bug upstream (the router validates ids at
// admission) and error out rather than silently serving zeros.
func (s *shard) payload(id int64) ([]float32, error) {
	switch s.part {
	case PartRowHash, PartConsistent:
		row, ok := s.rows[id]
		if !ok {
			return nil, fmt.Errorf("serve: rank %d asked for row %d it does not own", s.rank, id)
		}
		return row, nil
	default: // PartColumn
		if id < 0 || id >= int64(s.vocab) {
			return nil, fmt.Errorf("serve: row %d outside vocab %d", id, s.vocab)
		}
		return s.columns.Row(int(id)), nil
	}
}

// fetchInto packs the shard's payload for the requested ids into dst, one
// sparse row per id in request order, reusing dst's backing arrays.
//
//embrace:hotpath
func (s *shard) fetchInto(ids []int64, dst *tensor.Sparse) error {
	dst.Reset()
	dst.NumRows, dst.Dim = s.vocab, s.width()
	for _, id := range ids {
		row, err := s.payload(id)
		if err != nil {
			return err
		}
		dst.Indices = append(dst.Indices, id)
		dst.Vals = append(dst.Vals, row...)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Control protocol.
// ---------------------------------------------------------------------------

// Control message kinds, sent driver -> followers under "serve/ctl" within
// one tag plane.
const (
	ctlExchange = iota // run one id/row AlltoAll pair
	ctlReload          // join the reload rendezvous, then barrier
	ctlShutdown        // exit the follower loop
)

// broadcastCtl tells every follower of this plane what happens next. One ctl
// sequence number is consumed per broadcast on every rank, keeping the steps
// of the plane's ctl streams aligned. Every peer is attempted even after a
// send fails (the first error is returned): skipping survivors would
// desynchronize their ctl streams from the driver's, turning one dead rank
// into a wedged plane.
func (c *Cluster) broadcastCtl(n *node, kind int) error {
	st := n.ctlSeq
	n.ctlSeq++
	var first error
	for p := 0; p < c.cfg.Ranks; p++ {
		if p == n.rank {
			continue
		}
		if err := n.cm.Send("serve/ctl", st, p, kind); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// exchange runs the two-phase sparse fetch on any plane member: an AlltoAll
// of requested ids, a local shard fetch into reused send scratch, and an
// arena AlltoAll of the resulting rows (self shard elided from the wire).
// The driver passes its per-rank request lists; followers pass empties. The
// returned arena holds the per-sender shards (request order preserved) and
// is valid until the node's next exchange.
//
//embrace:hotpath
func (c *Cluster) exchange(n *node, reqLists [][]int64) (*collective.SparseShards, error) {
	st := n.xSeq
	n.xSeq++
	if reqLists == nil {
		reqLists = make([][]int64, c.cfg.Ranks) //embrace:allow hotalloc follower conscription is off the request fast path
	}
	got, err := collective.AllToAllVia(n.cm, "serve/req", st, reqLists)
	if err != nil {
		return nil, err
	}
	packed := 0
	n.rs.mu.RLock()
	for p := range n.send {
		if err := n.rs.shard.fetchInto(got[p], &n.send[p]); err != nil {
			n.rs.mu.RUnlock()
			return nil, err
		}
		packed += len(got[p])
	}
	n.rs.mu.RUnlock()
	c.packed.Add(int64(packed))
	if err := n.cm.AlltoAllSparse("serve/rows", st, n.sendPtrs, &n.arena); err != nil {
		return nil, err
	}
	return &n.arena, nil
}

// reloadRendezvous quiesces this plane member at the cluster-wide
// rendezvous (the last arrival rebuilds every rank and invalidates the hot
// set), then barriers the plane so its tag stream resumes in lockstep.
// Called on every plane member, drivers included.
func (c *Cluster) reloadRendezvous(n *node) error {
	if err := c.rv.await(c.rebuildAll, c.closeCh); err != nil {
		return err
	}
	st := n.reloadSeq
	n.reloadSeq++
	return n.cm.Barrier("serve/reload", st)
}

// rebuildAll swaps every rank onto the pending checkpoint and flushes the
// replicated hot set. It runs exactly once per reload, by the rendezvous's
// last arrival, while every driver and follower is parked — so no exchange
// can observe a half-rebuilt cluster.
func (c *Cluster) rebuildAll() error {
	c.pendingMu.Lock()
	ck := c.pending
	c.pendingMu.Unlock()
	if ck == nil {
		return errors.New("serve: reload signaled with no pending checkpoint")
	}
	for r, rs := range c.ranks {
		if err := rs.load(c.cfg, r, ck); err != nil {
			return err
		}
	}
	c.hot.invalidate()
	c.reloads.Add(1)
	return nil
}

// followerLoop is one plane member's life on a non-driver rank: wait for a
// control message from the plane's driver, obey it, repeat. Timeouts while
// idle (when a RecvTimeout is configured) are not errors — the rank just
// keeps listening.
func (c *Cluster) followerLoop(n *node) {
	for {
		payload, err := n.cm.Recv("serve/ctl", n.ctlSeq, n.plane)
		if err != nil {
			if errors.Is(err, comm.ErrTimeout) {
				continue // idle; same step, keep waiting
			}
			c.fail(fmt.Errorf("serve: rank %d plane %d ctl: %w", n.rank, n.plane, err))
			return
		}
		n.ctlSeq++
		kind, ok := payload.(int)
		if !ok {
			c.fail(fmt.Errorf("serve: rank %d plane %d: ctl payload %T", n.rank, n.plane, payload))
			return
		}
		switch kind {
		case ctlExchange:
			if _, err := c.exchange(n, nil); err != nil {
				c.fail(fmt.Errorf("serve: rank %d plane %d exchange: %w", n.rank, n.plane, err))
				return
			}
		case ctlReload:
			if err := c.reloadRendezvous(n); err != nil {
				c.fail(fmt.Errorf("serve: rank %d plane %d reload: %w", n.rank, n.plane, err))
				return
			}
		case ctlShutdown:
			return
		default:
			c.fail(fmt.Errorf("serve: rank %d plane %d: unknown ctl kind %d", n.rank, n.plane, kind))
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Reload rendezvous.
// ---------------------------------------------------------------------------

// rvGen is one generation of the rendezvous: a count of arrivals, a release
// channel, and the rebuild's outcome every participant reads after release.
type rvGen struct {
	arrived int
	done    chan struct{}
	err     error
}

// rendezvous is the cluster-wide quiesce point of the reload protocol:
// every plane member (Drivers x Ranks participants) arrives, the last
// arrival runs the rebuild while everyone else is parked, and the release
// publishes the rebuild happens-before every participant's next read — the
// cross-plane ordering the per-plane stepped protocol alone cannot provide,
// since concurrent drivers share no tag plane. Process-local by design: the
// ranks of a cluster are goroutines of one process on every fabric,
// including TCP.
type rendezvous struct {
	total int
	mu    sync.Mutex
	gen   *rvGen
}

func newRendezvous(total int) *rendezvous {
	return &rendezvous{total: total, gen: &rvGen{done: make(chan struct{})}}
}

// await blocks until all participants of the current generation arrive. The
// last arrival runs onLast and releases the rest; everyone returns onLast's
// error. abort (the cluster's close channel) unblocks waiters whose
// generation will never complete because the cluster is dying.
func (z *rendezvous) await(onLast func() error, abort <-chan struct{}) error {
	z.mu.Lock()
	g := z.gen
	g.arrived++
	last := g.arrived == z.total
	if last {
		z.gen = &rvGen{done: make(chan struct{})}
	}
	z.mu.Unlock()
	if last {
		g.err = onLast()
		close(g.done)
		return g.err
	}
	select {
	case <-g.done:
		return g.err
	case <-abort:
		return ErrClosed
	}
}
