package strategies

import (
	"fmt"

	"embrace/internal/collective"
	"embrace/internal/nn"
	"embrace/internal/optim"
	"embrace/internal/partition"
	"embrace/internal/tensor"
	"embrace/internal/trace"
)

// replicaWorker is the shared core of the data-parallel baselines: a full
// model replica per rank and its optimizers (nil for BytePS, which binds
// its own). Only the gradient exchange differs between them.
type replicaWorker struct {
	cm       *collective.Communicator
	cfg      Config
	rec      *trace.Recorder // per-rank span recorder; nil disables tracing
	model    *nn.Model
	trunkOpt *DenseShards
	embOpt   optim.Optimizer
}

func newReplicaWorker(cm *collective.Communicator, cfg Config, rec *trace.Recorder) *replicaWorker {
	m := newInitialModel(cfg)
	return &replicaWorker{
		cm:       cm,
		cfg:      cfg,
		rec:      rec,
		model:    m,
		trunkOpt: NewDenseShards(cm, cfg.Optimizer, cfg.LR, m.Trunk.Params()),
		embOpt:   newOptimizer(cfg, m.Emb.Table),
	}
}

// modelStep runs the replica's fused forward/backward under a span.
func (w *replicaWorker) modelStep(step int, windows [][]int64, targets []int64) (nn.StepStats, *tensor.Sparse, *nn.TrunkGrads, error) {
	sp := w.rec.Begin(trace.TrackCompute, SpanFPBP, step)
	stats, embGrad, grads, err := w.model.Step(windows, targets)
	sp.End()
	return stats, embGrad, grads, err
}

func (w *replicaWorker) Trunk() *nn.Trunk { return w.model.Trunk }

func (w *replicaWorker) FullEmbedding() (*tensor.Dense, error) {
	return w.model.Emb.Table, nil
}

// Drain has nothing to wait for: the baselines run every exchange on the
// step goroutine.
func (w *replicaWorker) Drain() {}

// allReduceTrunk is the dense path every baseline except BytePS shares,
// blocking on the step goroutine.
func (w *replicaWorker) allReduceTrunk(step int, grads *nn.TrunkGrads) error {
	return exchangeTrunk(w.rec, trace.TrackCompute, w.trunkOpt, step, grads)
}

// ---------------------------------------------------------------------------
// Horovod AllReduce: sparse treated as dense (§5.2.3 baseline ii).
// ---------------------------------------------------------------------------

type allReduceWorker struct {
	*replicaWorker
}

func newAllReduceWorker(cm *collective.Communicator, cfg Config, rec *trace.Recorder) *allReduceWorker {
	return &allReduceWorker{newReplicaWorker(cm, cfg, rec)}
}

func (w *allReduceWorker) Strategy() Name { return HorovodAllReduce }

func (w *allReduceWorker) Step(step int, windows [][]int64, targets []int64, _ []int64) (nn.StepStats, error) {
	stats, embGrad, grads, err := w.modelStep(step, windows, targets)
	if err != nil {
		return nn.StepStats{}, err
	}
	// The embedding gradient is scattered to dense format and AllReduced
	// whole — zeros included, the waste Figure 1(a) illustrates.
	sp := w.rec.Begin(trace.TrackCompute, SpanEmbExchange, step)
	dense := embGrad.ToDense()
	if err := w.cm.AllReduce(OpEmbGrad, step, dense.Data()); err != nil {
		return nn.StepStats{}, fmt.Errorf("embedding allreduce: %w", err)
	}
	sp.End()
	sp = w.rec.Begin(trace.TrackCompute, SpanEmbUpdate, step)
	if err := w.embOpt.StepDense(dense); err != nil {
		return nn.StepStats{}, fmt.Errorf("embedding update: %w", err)
	}
	sp.End()
	if err := w.allReduceTrunk(step, grads); err != nil {
		return nn.StepStats{}, err
	}
	return stats, nil
}

// ---------------------------------------------------------------------------
// Horovod AllGather: sparse embedding gradients, dense AllReduce
// (§5.2.3 baseline iii).
// ---------------------------------------------------------------------------

type allGatherWorker struct {
	*replicaWorker
}

func newAllGatherWorker(cm *collective.Communicator, cfg Config, rec *trace.Recorder) *allGatherWorker {
	return &allGatherWorker{newReplicaWorker(cm, cfg, rec)}
}

func (w *allGatherWorker) Strategy() Name { return HorovodAllGather }

func (w *allGatherWorker) Step(step int, windows [][]int64, targets []int64, _ []int64) (nn.StepStats, error) {
	stats, embGrad, grads, err := w.modelStep(step, windows, targets)
	if err != nil {
		return nn.StepStats{}, err
	}
	sp := w.rec.Begin(trace.TrackCompute, SpanEmbExchange, step)
	merged, err := w.cm.SparseAllGather(OpEmbGrad, step, embGrad)
	if err != nil {
		return nn.StepStats{}, fmt.Errorf("embedding allgather: %w", err)
	}
	sp.End()
	sp = w.rec.Begin(trace.TrackCompute, SpanEmbUpdate, step)
	if err := w.embOpt.StepSparse(merged); err != nil {
		return nn.StepStats{}, fmt.Errorf("embedding update: %w", err)
	}
	sp.End()
	if err := w.allReduceTrunk(step, grads); err != nil {
		return nn.StepStats{}, err
	}
	return stats, nil
}

// ---------------------------------------------------------------------------
// Parallax: embeddings through a sparse parameter server whose shards live
// with their owners, AllReduce for dense (§5.2.3 baseline iv).
// ---------------------------------------------------------------------------

// parallaxWorker co-locates one server shard with every rank: rank
// partition.RowHash's Owner(row, N) holds the authoritative value and the
// optimizer state of row. Like Parallax's partitioned servers, hashing
// spreads the Zipf head across shards. Its replica table holds its own rows
// current; every other row there is a cache, refreshed by the pull of each
// batch that reads it.
type parallaxWorker struct {
	*replicaWorker

	// Steady-state scratch, reused across steps: the batch's unique rows,
	// the per-owner row requests (read by reference on the in-process
	// fabric; each owner is done with them before it sends its rows), the
	// per-peer shards with their send pointers, the arena and the bucketer.
	need    []int64
	reqs    [][]int64
	shards  []tensor.Sparse
	send    []*tensor.Sparse
	arena   collective.SparseShards
	bucket  tensor.RowBucketer
	ownerOf func(int64) int
}

func newParallaxWorker(cm *collective.Communicator, cfg Config, rec *trace.Recorder) *parallaxWorker {
	n := cm.Size()
	w := &parallaxWorker{
		replicaWorker: newReplicaWorker(cm, cfg, rec),
		reqs:          make([][]int64, n),
		shards:        make([]tensor.Sparse, n),
		send:          make([]*tensor.Sparse, n),
		ownerOf:       func(row int64) int { return partition.RowHash{}.Owner(row, n) },
	}
	for p := range w.send {
		w.send[p] = &w.shards[p]
	}
	return w
}

func (w *parallaxWorker) Strategy() Name { return Parallax }

func (w *parallaxWorker) Step(step int, windows [][]int64, targets []int64, _ []int64) (nn.StepStats, error) {
	// Pull the current values of exactly the rows this batch reads — the
	// frequent GPU<->server row traffic §5.3 blames for Parallax's
	// memory-copy overhead.
	sp := w.rec.Begin(trace.TrackCompute, SpanPSPull, step)
	if err := w.pull(step, windows); err != nil {
		return nn.StepStats{}, fmt.Errorf("embedding pull: %w", err)
	}
	sp.End()

	stats, embGrad, grads, err := w.modelStep(step, windows, targets)
	if err != nil {
		return nn.StepStats{}, err
	}
	sp = w.rec.Begin(trace.TrackCompute, SpanPSPush, step)
	if err := w.push(step, embGrad); err != nil {
		return nn.StepStats{}, fmt.Errorf("embedding push: %w", err)
	}
	sp.End()
	if err := w.allReduceTrunk(step, grads); err != nil {
		return nn.StepStats{}, err
	}
	return stats, nil
}

// pull asks each owner for the batch's rows it holds (one AlltoAll of row
// ids), receives their values (one sparse AlltoAll) and writes them into the
// replica table. This rank's own rows are current already and are not
// requested.
func (w *parallaxWorker) pull(step int, windows [][]int64) error {
	w.need = w.need[:0]
	for _, win := range windows {
		w.need = append(w.need, win...)
	}
	tensor.SortInt64(w.need)
	w.need = tensor.UniqueSorted(w.need)
	w.bucket.Bucket(w.need, len(w.reqs), w.ownerOf)
	offs, perm := w.bucket.Offsets(), w.bucket.Perm()
	for p := range w.reqs {
		w.reqs[p] = w.reqs[p][:0]
		if p == w.cm.Rank() {
			continue
		}
		for _, i := range perm[offs[p]:offs[p+1]] {
			w.reqs[p] = append(w.reqs[p], w.need[i])
		}
	}
	asked, err := collective.AllToAllVia(w.cm, OpPSPullReq, step, w.reqs)
	if err != nil {
		return err
	}
	table := w.model.Emb.Table
	for p, rows := range asked {
		sh := w.resetShard(p)
		for _, row := range rows {
			if row < 0 || row >= int64(w.cfg.Vocab) || w.ownerOf(row) != w.cm.Rank() {
				return fmt.Errorf("rank %d asked for row %d, not held here", p, row)
			}
			sh.Indices = append(sh.Indices, row)
			sh.Vals = append(sh.Vals, table.Row(int(row))...)
		}
	}
	if err := w.cm.AlltoAllSparse(OpPSPullRows, step, w.send, &w.arena); err != nil {
		return err
	}
	w.copyIn(w.arena.Merged())
	return nil
}

// push sends every gradient row to its owner (one sparse AlltoAll), and the
// owner applies the rows it received. The arena holds them in sender-rank
// order, each sender's rows in their original order, so the optimizer's
// coalesce sums every row exactly as HorovodAllGather's concatenation does.
// The owner steps even on an empty gradient, so Adam's step counter
// advances once per step on every shard.
func (w *parallaxWorker) push(step int, grad *tensor.Sparse) error {
	w.bucket.Bucket(grad.Indices, len(w.shards), w.ownerOf)
	offs, perm := w.bucket.Offsets(), w.bucket.Perm()
	for p := range w.shards {
		sh := w.resetShard(p)
		for _, i := range perm[offs[p]:offs[p+1]] {
			sh.Indices = append(sh.Indices, grad.Indices[i])
			sh.Vals = append(sh.Vals, grad.Row(int(i))...)
		}
	}
	if err := w.cm.AlltoAllSparse(OpEmbGrad, step, w.send, &w.arena); err != nil {
		return err
	}
	return w.embOpt.StepSparse(w.arena.Merged())
}

// FullEmbedding gathers every owner's rows into the replica table, which
// is then current in full.
func (w *parallaxWorker) FullEmbedding() (*tensor.Dense, error) {
	table := w.model.Emb.Table
	own := w.resetShard(0)
	for row := range w.cfg.Vocab {
		if w.ownerOf(int64(row)) == w.cm.Rank() {
			own.Indices = append(own.Indices, int64(row))
			own.Vals = append(own.Vals, table.Row(row)...)
		}
	}
	all := make([]*tensor.Sparse, len(w.send))
	for p := range all {
		all[p] = own
	}
	if err := w.cm.AlltoAllSparse(OpGatherEmb, 0, all, &w.arena); err != nil {
		return nil, err
	}
	w.copyIn(w.arena.Merged())
	return table, nil
}

// resetShard empties peer p's shard for reuse as a [vocab x EmbDim] tensor.
func (w *parallaxWorker) resetShard(p int) *tensor.Sparse {
	sh := &w.shards[p]
	sh.Reset()
	sh.NumRows, sh.Dim = w.cfg.Vocab, w.cfg.EmbDim
	return sh
}

// copyIn writes received rows into the replica table.
func (w *parallaxWorker) copyIn(rows *tensor.Sparse) {
	table := w.model.Emb.Table
	for i, ix := range rows.Indices {
		copy(table.Row(int(ix)), rows.Row(i))
	}
}

// ---------------------------------------------------------------------------
// BytePS: every gradient through dense parameter servers (§5.2.3 baseline i).
// ---------------------------------------------------------------------------

// bytePSWorker co-locates one server shard with every rank. The shard of
// rank r owns ring chunk r of every parameter, embedding table included, and
// that chunk's optimizer state: a DenseShards over all five parameters. The
// push is the ring's reduce-scatter and the pull its all-gather of updated
// parameters, so one step costs the wire bytes of one ring AllReduce.
type bytePSWorker struct {
	*replicaWorker
	servers *DenseShards
}

func newBytePSWorker(cm *collective.Communicator, cfg Config, rec *trace.Recorder) *bytePSWorker {
	m := newInitialModel(cfg)
	params := append([]nn.NamedParam{{Name: "emb", Tensor: m.Emb.Table}}, m.Trunk.Params()...)
	return &bytePSWorker{
		replicaWorker: &replicaWorker{cm: cm, cfg: cfg, rec: rec, model: m},
		servers:       NewDenseShards(cm, cfg.Optimizer, cfg.LR, params),
	}
}

func (w *bytePSWorker) Strategy() Name { return BytePS }

func (w *bytePSWorker) Step(step int, windows [][]int64, targets []int64, _ []int64) (nn.StepStats, error) {
	stats, embGrad, grads, err := w.modelStep(step, windows, targets)
	if err != nil {
		return nn.StepStats{}, err
	}
	// BytePS treats the sparse gradient as dense (§5.2.3).
	sp := w.rec.Begin(trace.TrackCompute, SpanPSPush, step)
	if err := w.servers.Push(OpPSDense, step, embGrad.ToDense(), grads.W1, grads.B1, grads.W2, grads.B2); err != nil {
		return nn.StepStats{}, fmt.Errorf("push: %w", err)
	}
	sp.End()
	sp = w.rec.Begin(trace.TrackCompute, SpanPSPull, step)
	if err := w.servers.Pull(OpPSDense, step); err != nil {
		return nn.StepStats{}, fmt.Errorf("pull: %w", err)
	}
	sp.End()
	return stats, nil
}
