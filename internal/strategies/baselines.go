package strategies

import (
	"fmt"

	"embrace/internal/collective"
	"embrace/internal/nn"
	"embrace/internal/optim"
	"embrace/internal/ps"
	"embrace/internal/tensor"
	"embrace/internal/trace"
)

// replicaWorker is the shared core of the data-parallel baselines: a full
// model replica per rank plus worker-side optimizers. Only the gradient
// exchange differs between them.
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
// Parallax: sparse PS for embeddings + AllReduce for dense
// (§5.2.3 baseline iv).
// ---------------------------------------------------------------------------

type parallaxWorker struct {
	*replicaWorker
	srv *ps.ShardedSparse

	// Steady-state scratch: the batch's unique-row working set, the pulled
	// rows, and the push-side bucketing buffers, all reused across steps.
	need   []int64
	pulled tensor.Sparse
	push   ps.PushScratch
}

func newParallaxWorker(cm *collective.Communicator, cfg Config, srv *ps.ShardedSparse, rec *trace.Recorder) *parallaxWorker {
	return &parallaxWorker{replicaWorker: newReplicaWorker(cm, cfg, rec), srv: srv}
}

func (w *parallaxWorker) Strategy() Name { return Parallax }

func (w *parallaxWorker) Step(step int, windows [][]int64, targets []int64, _ []int64) (nn.StepStats, error) {
	// Pull the authoritative values of exactly the rows this batch reads —
	// the frequent GPU<->server row traffic §5.3 blames for Parallax's
	// memory-copy overhead.
	sp := w.rec.Begin(trace.TrackCompute, SpanPSPull, step)
	w.need = w.need[:0]
	for _, win := range windows {
		w.need = append(w.need, win...)
	}
	tensor.SortInt64(w.need)
	w.need = tensor.UniqueSorted(w.need)
	if err := w.srv.PullRowsInto(w.need, &w.pulled); err != nil {
		return nn.StepStats{}, fmt.Errorf("embedding pull: %w", err)
	}
	for i, ix := range w.pulled.Indices {
		copy(w.model.Emb.Table.Row(int(ix)), w.pulled.Row(i))
	}
	sp.End()

	stats, embGrad, grads, err := w.modelStep(step, windows, targets)
	if err != nil {
		return nn.StepStats{}, err
	}
	sp = w.rec.Begin(trace.TrackCompute, SpanPSPush, step)
	if err := w.srv.PushAndWaitWith(embGrad, &w.push); err != nil {
		return nn.StepStats{}, fmt.Errorf("embedding push: %w", err)
	}
	sp.End()
	if err := w.allReduceTrunk(step, grads); err != nil {
		return nn.StepStats{}, err
	}
	return stats, nil
}

func (w *parallaxWorker) FullEmbedding() (*tensor.Dense, error) {
	dst := tensor.NewDense(w.cfg.Vocab, w.cfg.EmbDim)
	if err := w.srv.PullAll(dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// ---------------------------------------------------------------------------
// BytePS: everything through dense parameter servers (§5.2.3 baseline i).
// ---------------------------------------------------------------------------

type bytePSWorker struct {
	*replicaWorker
	embSrv    *ps.Dense
	trunkSrvs map[string]*ps.Dense
}

func newBytePSWorker(cm *collective.Communicator, cfg Config, sh *Shared, rec *trace.Recorder) *bytePSWorker {
	return &bytePSWorker{
		replicaWorker: newReplicaWorker(cm, cfg, rec),
		embSrv:        sh.denseEmb,
		trunkSrvs:     sh.trunkSrvs,
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
	if err := w.embSrv.PushAndWait(embGrad.ToDense()); err != nil {
		return nn.StepStats{}, fmt.Errorf("embedding push: %w", err)
	}
	for _, g := range grads.Dense() {
		srv := w.trunkSrvs[g.Name]
		if err := srv.PushAndWait(g.Tensor); err != nil {
			return nn.StepStats{}, fmt.Errorf("trunk %s push: %w", g.Name, err)
		}
	}
	sp.End()
	sp = w.rec.Begin(trace.TrackCompute, SpanPSPull, step)
	if err := w.embSrv.Pull(w.model.Emb.Table); err != nil {
		return nn.StepStats{}, fmt.Errorf("embedding pull: %w", err)
	}
	for _, p := range w.model.Trunk.Params() {
		if err := w.trunkSrvs[p.Name].Pull(p.Tensor); err != nil {
			return nn.StepStats{}, fmt.Errorf("trunk %s pull: %w", p.Name, err)
		}
	}
	sp.End()
	return stats, nil
}

func (w *bytePSWorker) FullEmbedding() (*tensor.Dense, error) {
	dst := tensor.NewDense(w.cfg.Vocab, w.cfg.EmbDim)
	if err := w.embSrv.Pull(dst); err != nil {
		return nil, err
	}
	return dst, nil
}
