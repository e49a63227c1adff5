package strategies

import (
	"fmt"

	"embrace/internal/collective"
	"embrace/internal/nn"
	"embrace/internal/optim"
	"embrace/internal/tensor"
	"embrace/internal/trace"
)

// embraceWorker implements the paper's contribution in real-execution mode.
//
// The embedding table is column-wise partitioned (§4.1.1): rank s owns
// columns [s*dim/N, (s+1)*dim/N) of every vocabulary row, so every shard
// sees every word and load balance is batch-independent. One training step:
//
//  1. AllGather the token windows of every rank ("gathered training data",
//     the D_cur of Algorithm 1).
//  2. Each shard looks up its columns of the pooled embedding for every
//     rank's batch, then the first AlltoAll routes the partial lookups so
//     each rank assembles the full-width pooled activations of its own
//     batch — embedding forward via model parallelism.
//  3. The dense trunk runs forward/backward locally.
//  4. The hybrid of §4.1.3, both halves in flight together (Figure 5). The
//     dense half — one ring pass over every trunk gradient block with the
//     ring-sharded trunk update (DenseShards) — runs on its own goroutine;
//     the step goroutine meanwhile runs the embedding half, (5)-(6). The dense
//     goroutine outlives the step: see late dense join below.
//  5. The pooled-activation gradient becomes per-token sparse rows,
//     column-sliced per destination shard — the raw, uncoalesced gradient
//     Algorithm 1 starts from.
//  6. With Sched2D, each rank gathers the next batch's ids, harvests the
//     previous step's delayed exchange (see below), and partitions its rows
//     against the gathered next batch: the prior part travels through an
//     immediate AlltoAll and is applied at once (modified optimizer,
//     final=false); the delayed part travels through a background AlltoAll
//     that outlives the step (§4.2.2, §5.7). Without Sched2D a single
//     whole-gradient AlltoAll feeds a whole update.
//
// Late harvest: step t-1's delayed exchange is joined and applied
// (final=true) in step t's (6), not at the top of step t, so steps (1)-(5)
// of step t cover it. That is safe because by Algorithm 1 the delayed rows of
// t-1 are exactly the rows no rank's batch t contains — the lookup of (2)
// never reads them — and the join still comes before the vertical split
// rewrites the buffers the exchange reads and before step t's prior update,
// so §5.7's logical Adam step advances in the same order.
//
// Late dense join: step t's dense lane is joined by step t+1 after its (1)
// token gather and (2) lookup and emb/data AlltoAll, right before (3) reads
// the trunk, so those run under step t's ring — the next iteration's
// embedding forward under this iteration's dense communication (§4.2.1,
// Fig. 5). Nothing else reads or writes the trunk in between: the lane owns
// the trunk gradients and the parameters it all-gathers into until the join.
// FullEmbedding joins it too, so Trunk is valid after FullEmbedding. A failed
// Step or FullEmbedding may leave either lane running; the caller leaves the
// world and then calls Drain (the Worker contract), so no lane outlives the
// rank.
type embraceWorker struct {
	cm  *collective.Communicator
	cfg Config
	rec *trace.Recorder // per-rank span recorder; nil disables tracing

	shard    *nn.Embedding // [vocab x dim/N], this rank's columns
	trunk    *nn.Trunk
	trunkOpt *DenseShards
	embOpt   optim.Optimizer
	dimShard int

	// dense is step (4)'s ring pass and trunk update, joined by the next
	// step's late dense join or by FullEmbedding. delayed is the background
	// exchange of a step's delayed gradients (§4.2.2: "the communications of
	// delayed gradients could be performed later"); it is harvested — its
	// gradient applied with the modified optimizer's final call — by the next
	// step or by FullEmbedding.
	dense, delayed lane

	hot hotScratch
}

// LaneError is the failure of an operation a worker ran on a background lane,
// with the step that started it. Such a failure surfaces in a later call — a
// dense ring of step t inside step t+1 or FullEmbedding — and the caller
// attributes it to Step.
type LaneError struct {
	Step int
	Err  error
}

func (e *LaneError) Error() string { return fmt.Sprintf("step %d: %v", e.Step, e.Err) }

// Unwrap exposes the operation's error.
func (e *LaneError) Unwrap() error { return e.Err }

// lane runs one background operation at a time on its own goroutine and
// joins it; the join channel is allocated once and reused by every step.
type lane struct {
	done chan error // capacity 1: the goroutine never blocks delivering
	busy bool
	step int // the step whose operation is in flight
}

func newLane() lane { return lane{done: make(chan error, 1)} }

// start runs step's op on a new goroutine. The lane must be idle.
func (l *lane) start(step int, op func() error) {
	l.busy, l.step = true, step
	go func() { l.done <- op() }()
}

// join waits for the operation in flight, if any, and returns its error as a
// *LaneError.
func (l *lane) join() error {
	if !l.busy {
		return nil
	}
	l.busy = false
	if err := <-l.done; err != nil {
		return &LaneError{Step: l.step, Err: err}
	}
	return nil
}

// hotScratch owns every reusable buffer of the steady-state step: the raw
// sparse gradient, the per-shard column slices, the prior/delayed split, the
// sorted next-batch sets, the exchange arenas and the coalesce targets. Each
// buffer grows to its high-water mark on the first step and is then reused,
// so steady-state gradient packing, splitting, exchanging and coalescing
// allocate nothing — the discipline the hotalloc analyzer enforces.
//
// The background delayed exchange overlaps the next step's foreground, so it
// gets its own arena and coalesce scratch (bg*); harvestDelayed joins the
// goroutine before the one foreground buffer it reads (the delayed split) is
// rewritten.
type hotScratch struct {
	rows        tensor.Sparse   // raw uncoalesced pooled gradient (PoolBackwardInto)
	send        []tensor.Sparse // per-destination-shard column slices
	sendPtrs    []*tensor.Sparse
	prior       []tensor.Sparse // prior part of each send shard
	priorPtrs   []*tensor.Sparse
	delayed     []tensor.Sparse // delayed part of each send shard
	delayedPtrs []*tensor.Sparse

	// myNext is double-buffered: the gathered next-batch slice travels by
	// reference through the in-process transport, and although every peer
	// has consumed step k's slice before this rank can reach step k+1's
	// rewrite (the step-k+1 token gather is a rendezvous), alternating
	// buffers keeps the invariant local instead of resting on that global
	// ordering argument.
	myNext  [2][]int64
	flip    int
	nextAll []int64 // merged sorted next ids of all ranks

	arena collective.SparseShards // foreground exchange (whole or prior)
	coal  tensor.Sparse           // foreground coalesce target
	sort  tensor.SortScratch

	bgArena collective.SparseShards // background delayed exchange
	bgCoal  tensor.Sparse
	bgSort  tensor.SortScratch
}

// init sizes the fixed-world-size slices once; everything else grows lazily.
func (h *hotScratch) init(n int) {
	h.send = make([]tensor.Sparse, n)
	h.prior = make([]tensor.Sparse, n)
	h.delayed = make([]tensor.Sparse, n)
	h.sendPtrs = make([]*tensor.Sparse, n)
	h.priorPtrs = make([]*tensor.Sparse, n)
	h.delayedPtrs = make([]*tensor.Sparse, n)
	for i := 0; i < n; i++ {
		h.sendPtrs[i] = &h.send[i]
		h.priorPtrs[i] = &h.prior[i]
		h.delayedPtrs[i] = &h.delayed[i]
	}
}

func newEmbRaceWorker(cm *collective.Communicator, cfg Config, rec *trace.Recorder, embShard *tensor.Dense) *embraceWorker {
	n := cm.Size()
	dimShard := cfg.EmbDim / n
	// Build the same full model every baseline starts from (warm-start
	// overrides included), then keep only this rank's column shard, so
	// cross-strategy equivalence holds exactly. A caller-provided shard
	// (WithEmbShard, shape-checked by NewWorker) replaces the slice — the
	// elastic restore path, where each rank gets its remapped columns from
	// a checkpoint and nobody holds the full table — and is copied so
	// training never writes through to the caller's tensor.
	full := newInitialModel(cfg)
	shardTable := tensor.NewDense(cfg.Vocab, dimShard)
	if embShard != nil {
		copy(shardTable.Data(), embShard.Data())
	} else {
		lo := cm.Rank() * dimShard
		for r := 0; r < cfg.Vocab; r++ {
			copy(shardTable.Row(r), full.Emb.Table.Row(r)[lo:lo+dimShard])
		}
	}
	w := &embraceWorker{
		cm:       cm,
		cfg:      cfg,
		rec:      rec,
		shard:    &nn.Embedding{Table: shardTable},
		trunk:    full.Trunk,
		trunkOpt: NewDenseShards(cm, cfg.Optimizer, cfg.LR, full.Trunk.Params()),
		embOpt:   newOptimizer(cfg, shardTable),
		dimShard: dimShard,
		dense:    newLane(),
		delayed:  newLane(),
	}
	w.hot.init(n)
	// Both lanes record from their own goroutines; their wire events must
	// not interleave with the step loop's network spans.
	rec.RouteOp(OpTrunk, trace.TrackBackground)
	rec.RouteOp(OpEmbDelayed, trace.TrackBackground)
	return w
}

func (w *embraceWorker) Strategy() Name { return EmbRace }

// Trunk returns the trunk. Between steps it is valid only after
// FullEmbedding: the last step's update may still be in flight until then.
func (w *embraceWorker) Trunk() *nn.Trunk { return w.trunk }

// Drain joins both lanes and discards what they return.
func (w *embraceWorker) Drain() {
	w.dense.join()
	w.delayed.join()
}

// harvestDelayed joins the background delayed exchange in flight, if any,
// and applies it as the final part of its step's split update. It must run
// before the optimizer's next logical step begins. step labels the span of
// the step doing the harvesting (pass -1 outside the step loop).
func (w *embraceWorker) harvestDelayed(step int) error {
	if !w.delayed.busy {
		return nil
	}
	sp := w.rec.Begin(trace.TrackCompute, SpanHarvestDelayed, step)
	defer sp.End()
	if err := w.delayed.join(); err != nil {
		return fmt.Errorf("delayed exchange: %w", err)
	}
	grad := &w.hot.bgCoal
	if adam, ok := w.embOpt.(*optim.Adam); ok {
		if err := adam.StepSparsePartial(grad, true); err != nil {
			return fmt.Errorf("delayed update: %w", err)
		}
		return nil
	}
	if err := w.embOpt.StepSparse(grad); err != nil {
		return fmt.Errorf("delayed update: %w", err)
	}
	return nil
}

// exchangeDelayed is the delayed lane's operation: the AlltoAll of step's
// delayed rows, coalesced into bgCoal for harvestDelayed. Its span lives on
// the background track so it cannot interleave with the foreground lanes'
// events — this is the overlap §4.2.2 promises, visible directly on the
// timeline. It owns the bg* scratch exclusively: the goroutine is joined
// (harvestDelayed) before the delayed split it reads or the coalesce target
// it fills can be touched again.
func (w *embraceWorker) exchangeDelayed(step int) error {
	h := &w.hot
	sp := w.rec.Begin(trace.TrackBackground, SpanDelayedExchange, step)
	defer sp.End()
	if err := w.cm.AlltoAllSparse(OpEmbDelayed, step, h.delayedPtrs, &h.bgArena); err != nil {
		return err
	}
	h.bgArena.Merged().CoalesceInto(&h.bgCoal, &h.bgSort)
	return nil
}

//embrace:hotpath
func (w *embraceWorker) Step(step int, windows [][]int64, targets []int64, nextTokens []int64) (nn.StepStats, error) {
	n := w.cm.Size()

	// (1) Gather every rank's token windows.
	allWindows, err := collective.AllGatherVia(w.cm, OpTokens, step, windows)
	if err != nil {
		return nn.StepStats{}, fmt.Errorf("token gather: %w", err)
	}

	// (2) Shard-side lookup for every rank, then AlltoAll the partial
	// pooled activations (the "Emb Data" exchange of Figure 5).
	sp := w.rec.Begin(trace.TrackCompute, SpanLookup, step)
	partials := make([]*tensor.Dense, n) //embrace:allow hotalloc lookups travel by reference in-process; reuse would race with peers
	for p := 0; p < n; p++ {
		partials[p] = w.shard.PoolLookup(allWindows[p])
	}
	sp.End()
	sp = w.rec.Begin(trace.TrackCompute, SpanEmbExchange, step)
	colParts, err := collective.AllToAllVia(w.cm, OpEmbData, step, partials)
	if err != nil {
		return nn.StepStats{}, fmt.Errorf("embedding data alltoall: %w", err)
	}
	pooled := tensor.NewDense(len(windows), w.cfg.EmbDim)
	for s := 0; s < n; s++ {
		part := colParts[s] // my batch's columns owned by shard s
		if part.Dim(0) != len(windows) || part.Dim(1) != w.dimShard {
			return nn.StepStats{}, fmt.Errorf("embrace: shard %d returned %v, want [%d x %d]",
				s, part.Shape(), len(windows), w.dimShard)
		}
		lo := s * w.dimShard
		for i := 0; i < len(windows); i++ {
			copy(pooled.Row(i)[lo:lo+w.dimShard], part.Row(i))
		}
	}
	sp.End()

	// Late dense join: the previous step's ring pass and trunk update have
	// been in flight since that step returned, under (1) and (2). The forward
	// below reads the trunk, so this is the last point to join them.
	if err := w.dense.join(); err != nil {
		return nn.StepStats{}, fmt.Errorf("dense lane: %w", err)
	}

	// (3) Dense trunk forward/backward.
	sp = w.rec.Begin(trace.TrackCompute, SpanFP, step)
	loss, cache, err := w.trunk.Forward(pooled, targets)
	if err != nil {
		return nn.StepStats{}, err
	}
	sp.End()
	stats := nn.StepStats{Loss: loss, Correct: cache.Correct(), Count: len(targets)}
	sp = w.rec.Begin(trace.TrackCompute, SpanBP, step)
	grads := w.trunk.Backward(cache)
	sp.End()

	// (4) Hybrid communication: the dense ring pass and trunk update on the
	// dense lane, the embedding-gradient path on this goroutine beside it.
	// The two touch disjoint state (trunk blocks vs. grads.Pooled, the shard
	// and the hot scratch). The lane outlives the step: the next step joins
	// it before its forward.
	w.dense.start(step, func() error { //embrace:allow hotalloc the concurrent hybrid of §4.1.3 is a real goroutine per step
		return exchangeTrunk(w.rec, trace.TrackBackground, w.trunkOpt, step, grads)
	})
	if err := w.exchangeEmbGrad(step, windows, grads.Pooled, nextTokens); err != nil {
		return nn.StepStats{}, err
	}
	return stats, nil
}

// exchangeEmbGrad is the embedding half of the hybrid: steps (5)-(6), on the
// step goroutine.
//
//embrace:hotpath
func (w *embraceWorker) exchangeEmbGrad(step int, windows [][]int64, gradPooled *tensor.Dense, nextTokens []int64) error {
	h := &w.hot

	// (5) Convert the pooled gradient into per-token sparse rows and
	// column-slice them per destination shard (the "Emb Grad" exchange of
	// Figure 5). PoolBackward keeps one row per token occurrence, which is
	// exactly the uncoalesced gradient Algorithm 1 starts from.
	local := w.shardOf(windows, gradPooled) // my batch, sliced per shard

	// (6a) Without vertical scheduling: one whole-gradient arena exchange,
	// then a whole update. The arena's merged view is exactly the
	// sender-ordered concatenation an AllToAllVia + Concat path would
	// produce, and CoalesceInto sums it in the same order Coalesce would —
	// the update is bit-identical, it just reuses last step's buffers.
	if w.cfg.Sched != Sched2D {
		sp := w.rec.Begin(trace.TrackCompute, SpanEmbExchange, step)
		if err := w.cm.AlltoAllSparse(OpEmbGrad, step, local, &h.arena); err != nil {
			return fmt.Errorf("embedding grad alltoall: %w", err)
		}
		raw := h.arena.Merged().CoalesceInto(&h.coal, &h.sort)
		sp.End()
		sp = w.rec.Begin(trace.TrackCompute, SpanEmbUpdate, step)
		if err := w.embOpt.StepSparse(raw); err != nil {
			return fmt.Errorf("embedding update: %w", err)
		}
		sp.End()
		return nil
	}

	// (6b) Vertical Sparse Scheduling, split BEFORE communication: rows of
	// the prefetched next batch (gathered across ranks) form the prior
	// part, exchanged and applied immediately; the rest is exchanged on the
	// delayed lane and harvested by the next step.
	my := h.myNext[h.flip][:0]
	my = append(my, nextTokens...)
	tensor.SortInt64(my)
	my = tensor.UniqueSorted(my)
	h.myNext[h.flip] = my
	h.flip ^= 1
	allNext, err := collective.AllGatherVia(w.cm, OpNextBatch, step, my)
	if err != nil {
		return fmt.Errorf("next-batch gather: %w", err)
	}
	h.nextAll = h.nextAll[:0]
	for _, ns := range allNext {
		h.nextAll = append(h.nextAll, ns...)
	}
	tensor.SortInt64(h.nextAll)

	// The previous step's delayed gradients have been traveling since that
	// step ended. This is the last point they can be joined: the split below
	// rewrites the buffers their exchange reads, and the prior update opens
	// the optimizer's next logical step.
	if err := w.harvestDelayed(step); err != nil {
		return err
	}

	sp := w.rec.Begin(trace.TrackCompute, SpanVSplit, step)
	for s := range local {
		local[s].PartitionSortedInto(h.nextAll, &h.prior[s], &h.delayed[s])
	}
	sp.End()
	sp = w.rec.Begin(trace.TrackCompute, SpanPriorExchange, step)
	if err := w.cm.AlltoAllSparse(OpEmbGrad, step, h.priorPtrs, &h.arena); err != nil {
		return fmt.Errorf("prior grad alltoall: %w", err)
	}
	prior := h.arena.Merged().CoalesceInto(&h.coal, &h.sort)
	sp.End()
	sp = w.rec.Begin(trace.TrackCompute, SpanPriorUpdate, step)
	if adam, ok := w.embOpt.(*optim.Adam); ok {
		if err := adam.StepSparsePartial(prior, false); err != nil {
			return fmt.Errorf("prior update: %w", err)
		}
	} else if err := w.embOpt.StepSparse(prior); err != nil {
		return fmt.Errorf("prior update: %w", err)
	}
	sp.End()

	w.delayed.start(step, func() error { return w.exchangeDelayed(step) }) //embrace:allow hotalloc the overlap of §4.2.2 is a real goroutine per step
	return nil
}

// shardOf converts this rank's pooled-activation gradient into the N
// column-sliced sparse gradients the AlltoAll routes: slot s holds the rows
// of this rank's tokens restricted to shard s's columns. The rows and the
// slices live in the worker's hot scratch and are valid until the next call.
//
//embrace:hotpath
func (w *embraceWorker) shardOf(windows [][]int64, gradPooled *tensor.Dense) []*tensor.Sparse {
	h := &w.hot
	nn.PoolBackwardInto(w.cfg.Vocab, w.cfg.EmbDim, windows, gradPooled, &h.rows)
	for s := range h.send {
		h.rows.ColumnSliceInto(s*w.dimShard, (s+1)*w.dimShard, &h.send[s])
	}
	return h.sendPtrs
}

// FullEmbedding reassembles the complete table from every rank's column
// shard. All ranks must call it together (it is a collective). The in-flight
// trunk update is joined and any in-flight delayed update applied first, so
// the gathered table is complete and Trunk is current. Repeated gathers are
// ordered by their own op stream, so every call passes the same step.
func (w *embraceWorker) FullEmbedding() (*tensor.Dense, error) {
	if err := w.dense.join(); err != nil {
		return nil, fmt.Errorf("dense lane: %w", err)
	}
	if err := w.harvestDelayed(-1); err != nil {
		return nil, err
	}
	shards, err := collective.AllGatherVia(w.cm, OpGatherEmb, 0, w.shard.Table)
	if err != nil {
		return nil, err
	}
	full := tensor.NewDense(w.cfg.Vocab, w.cfg.EmbDim)
	for s, sh := range shards {
		lo := s * w.dimShard
		for r := 0; r < w.cfg.Vocab; r++ {
			copy(full.Row(r)[lo:lo+w.dimShard], sh.Row(r))
		}
	}
	return full, nil
}
