package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"embrace/internal/checkpoint"
	"embrace/internal/collective"
	"embrace/internal/comm"
	"embrace/internal/compress"
	"embrace/internal/data"
	"embrace/internal/nn"
	"embrace/internal/optim"
	"embrace/internal/partition"
	"embrace/internal/sched"
	"embrace/internal/serve"
	"embrace/internal/tensor"
	"embrace/internal/trainer"
)

// The isolated layer probes of the traced pass: each calls one module's
// public functions on the gradient of one captured step of the workload and
// times the calls as spans. They run on every workload, because their
// inputs — vocabulary, width, duplicate share — are the workload's.

// probeInput is one rank's step of the workload, captured: its windows and
// targets, the prefetched next batch, and the raw embedding gradient the
// model produces for it.
type probeInput struct {
	vocab, dim int
	model      *nn.Model
	windows    [][]int64
	targets    []int64
	ids, next  []int64 // this step's and the next step's token ids
	idSample   []int64 // ids of many steps, for placement statistics
	grad       *tensor.Sparse
	trunkGrads *nn.TrunkGrads
	shards     []*tensor.Sparse // grad column-sliced per destination rank
}

// capture builds the probe input from rank 0's data stream of job.
func capture(job trainer.Job) (*probeInput, error) {
	gen, err := data.NewGenerator(job.Data, job.DataSeed)
	if err != nil {
		return nil, err
	}
	loader := data.NewLoader(gen)
	batch := loader.Next()
	windows, targets := trainer.WindowsTargets(batch, job.Window)
	in := &probeInput{
		vocab: job.Model.Vocab, dim: job.Model.EmbDim,
		model:   nn.NewModel(job.Model.Seed, job.Model.Vocab, job.Model.EmbDim, job.Model.Hidden),
		windows: windows, targets: targets,
		next: loader.Peek().Tokens(),
	}
	for _, w := range windows {
		in.ids = append(in.ids, w...)
	}
	in.idSample = append(in.idSample, in.ids...)
	for len(in.idSample) < 1<<14 {
		in.idSample = append(in.idSample, loader.Next().Tokens()...)
	}
	_, grad, trunkGrads, err := in.model.Step(windows, targets)
	if err != nil {
		return nil, err
	}
	in.grad, in.trunkGrads = grad, trunkGrads
	w := in.dim / ranks
	for s := 0; s < ranks; s++ {
		in.shards = append(in.shards, grad.ColumnSlice(s*w, (s+1)*w))
	}
	return in, nil
}

// probeJob is the job a workload's probes capture their step from: the
// training job itself, or for a serving workload the job its checkpoint was
// trained with, whose windows have the size of a lookup.
func probeJob(wl *workload, seed int64) trainer.Job {
	if wl.train != nil {
		return wl.train.job(seed, 0)
	}
	ts := *wl.serve.trainedBy()
	ts.sentences = 32 // a full batch of lookups
	return ts.job(seed, 0)
}

// prober runs probes and turns their spans into metrics.
type prober struct {
	tr   *tracer
	res  *passResult
	reps int
	// budget bounds the time one probe may take, so that a probe whose single
	// call is slow (a forward pass over a 65536-word vocabulary) repeats less.
	budget time.Duration
}

// minReps is the fewest timed repeats a probe makes, whatever its budget.
const minReps = 3

// each times fn as spans of layer/name — reps times, or fewer once the
// budget is spent — and returns the median duration in seconds and the
// number of repeats.
func (p *prober) each(layer, name string, fn func()) (float64, int) {
	fn() // grow buffers before timing
	var spent time.Duration
	n := 0
	for ; n < p.reps && (n < minReps || spent < p.budget); n++ {
		spent += p.tr.time(layer, name, n, fn)
	}
	return median(p.tr.durs(layer, name)), n
}

func runProbes(wl *workload, sealed []byte, seed int64, size float64, tr *tracer, res *passResult) error {
	in, err := capture(probeJob(wl, seed))
	if err != nil {
		return err
	}
	p := &prober{tr: tr, res: res, reps: scaled(30, size, minReps), budget: time.Duration(size * float64(300*time.Millisecond))}
	p.tensor(in)
	p.sched(in)
	if err := p.compress(in); err != nil {
		return err
	}
	p.nn(in)
	if err := p.optim(in); err != nil {
		return err
	}
	p.partition(in)
	if err := p.checkpoint(sealed); err != nil {
		return err
	}
	if err := p.comm(size); err != nil {
		return err
	}
	if err := p.collective(in); err != nil {
		return err
	}
	return p.servePaths(size)
}

func (p *prober) tensor(in *probeInput) {
	rows := float64(len(in.grad.Indices))
	var coal tensor.Sparse
	var sc tensor.SortScratch
	sec, n := p.each("tensor", "CoalesceInto", func() { in.grad.CoalesceInto(&coal, &sc) })
	p.res.set("tensor.coalesce_ns_per_row", 1e9*sec/rows, n)
	p.res.set("tensor.coalesce_keep_ratio", float64(len(coal.Indices))/rows, 1)

	var b tensor.RowBucketer
	sec, n = p.each("tensor", "RowBucketer.Bucket", func() {
		b.Bucket(in.ids, ranks, func(id int64) int { return int(id % ranks) })
	})
	p.res.set("tensor.bucket_ns_per_id", 1e9*sec/float64(len(in.ids)), n)

	nextSorted := tensor.UniqueInt64(in.next)
	var prior, delayed tensor.Sparse
	sec, n = p.each("tensor", "PartitionSortedInto", func() { in.shards[0].PartitionSortedInto(nextSorted, &prior, &delayed) })
	p.res.set("tensor.vsplit_ns_per_row", 1e9*sec/rows, n)

	var slice tensor.Sparse
	sec, n = p.each("tensor", "ColumnSliceInto", func() { in.grad.ColumnSliceInto(0, in.dim/ranks, &slice) })
	p.res.set("tensor.colslice_ns_per_row", 1e9*sec/rows, n)
}

func (p *prober) sched(in *probeInput) {
	cur, next := tensor.UniqueInt64(in.ids), tensor.UniqueInt64(in.next)
	sec, n := p.each("sched", "VerticalSplit", func() { sched.VerticalSplit(in.grad, cur, next) })
	p.res.set("sched.vsplit_us", 1e6*sec, n)
	sizes := sched.MeasureSplit(in.grad, cur, next)
	p.res.set("sched.prior_row_share", ratio(float64(sizes.PriorBytes), float64(sizes.CoalescedBytes)), 1)
}

func (p *prober) compress(in *probeInput) error {
	dualq, err := compress.NewDualQuant(1e-4, 1e-3)
	if err != nil {
		return err
	}
	sh := in.shards[1]
	rows := float64(len(sh.Indices))
	raw := rows * float64(8+4*sh.Dim)
	for _, c := range []struct {
		key   string
		codec collective.SparseCodec
	}{{"delta", compress.DeltaRaw{}}, {"dualq", dualq}} {
		var wire []byte
		sec, n := p.each("compress", c.codec.Name()+".AppendShard", func() {
			wire = c.codec.AppendShard(wire[:0], sh.Indices, sh.Vals, sh.Dim, collective.RowsWhole)
		})
		p.res.set("compress."+c.key+"_encode_ns_per_row", 1e9*sec/rows, n)
		p.res.set("compress."+c.key+"_ratio", raw/float64(len(wire)), 1)
		var idx []int64
		var vals []float32
		var decErr error
		sec, n = p.each("compress", c.codec.Name()+".DecodeShard", func() {
			idx, vals, decErr = c.codec.DecodeShard(wire, len(sh.Indices), sh.Dim, idx[:0], vals[:0])
		})
		if decErr != nil {
			return decErr
		}
		p.res.set("compress."+c.key+"_decode_ns_per_row", 1e9*sec/rows, n)
	}
	return nil
}

func (p *prober) nn(in *probeInput) {
	m := in.model
	var pooled *tensor.Dense
	sec, n := p.each("nn", "Embedding.PoolLookup", func() { pooled = m.Emb.PoolLookup(in.windows) })
	p.res.set("nn.pool_lookup_us", 1e6*sec, n)

	sec, n = p.each("nn", "Trunk.Forward", func() { _, _, _ = m.Trunk.Forward(pooled, in.targets) })
	p.res.set("nn.forward_ms", 1e3*sec, n)

	// Forward cannot fail here: capture already ran the same step.
	_, cache, _ := m.Trunk.Forward(pooled, in.targets)
	_, bytes0 := memCounters()
	sec, n = p.each("nn", "Trunk.Backward", func() { m.Trunk.Backward(cache) })
	_, bytes1 := memCounters()
	p.res.set("nn.backward_ms", 1e3*sec, n)
	p.res.set("nn.backward_alloc_mb", float64(bytes1-bytes0)/float64(n+1)/1e6, n+1)

	var rows tensor.Sparse
	sec, n = p.each("nn", "PoolBackwardInto", func() {
		nn.PoolBackwardInto(in.vocab, in.dim, in.windows, in.trunkGrads.Pooled, &rows)
	})
	p.res.set("nn.pool_backward_us", 1e6*sec, n)
}

func (p *prober) optim(in *probeInput) error {
	coal := in.grad.Coalesce()
	adam := optim.NewAdamDefault(in.model.Emb.Table.Clone(), 1e-3)
	var err error
	sec, n := p.each("optim", "Adam.StepSparse", func() { err = adam.StepSparse(coal) })
	if err != nil {
		return err
	}
	p.res.set("optim.adam_sparse_ns_per_row", 1e9*sec/float64(len(coal.Indices)), n)

	dense := optim.NewAdamDefault(in.model.Trunk.W2.Clone(), 1e-3)
	sec, n = p.each("optim", "Adam.StepDense", func() { err = dense.StepDense(in.trunkGrads.W2) })
	if err != nil {
		return err
	}
	p.res.set("optim.adam_dense_ns_per_elem", 1e9*sec/float64(in.trunkGrads.W2.Len()), n)
	return nil
}

func (p *prober) partition(in *probeInput) {
	ch := partition.ConsistentHash{}
	owners := 0
	sec, n := p.each("partition", "ConsistentHash.Owner", func() {
		for _, id := range in.idSample {
			owners += ch.Owner(id, ranks)
		}
	})
	p.res.set("partition.owner_ns", 1e9*sec/float64(len(in.idSample)), n)
	loads := ch.ShardLoads(in.idSample, ranks)
	var top float64
	for _, l := range loads {
		top = max(top, l)
	}
	p.res.set("partition.load_imbalance", ratio(top, mean(loads)), len(in.idSample))
}

// checkpoint times the CRC-sealed decode of the checkpoint the workload's
// cluster booted from.
func (p *prober) checkpoint(sealed []byte) error {
	var err error
	sec, n := p.each("checkpoint", "Load", func() { _, err = checkpoint.Load(bytes.NewReader(sealed)) })
	if err != nil {
		return err
	}
	p.res.set("checkpoint.load_ms", 1e3*sec, n)
	return nil
}

// probeTag is the transport tag of every probe message. One tag suffices:
// the fabrics deliver FIFO per (sender, tag), and a fresh tag per message
// would grow the mailbox table the probes are trying to price.
var probeTag = 7

// pingPong bounces payload between ranks 0 and 1 of fab n times and returns
// the round-trip times in seconds.
func pingPong(fab fabric, payload any, n int, tr *tracer, name string) ([]float64, error) {
	a, b := fab.Rank(0), fab.Rank(1)
	echoErr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			got, err := b.Recv(0, probeTag)
			if err == nil {
				err = b.Send(0, probeTag, got)
			}
			if err != nil {
				fab.Close() // unblock the sender, which is waiting for this echo
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	var firstErr error
	for i := 0; i < n && firstErr == nil; i++ {
		start := tr.now()
		if firstErr = a.Send(1, probeTag, payload); firstErr == nil {
			_, firstErr = a.Recv(1, probeTag)
		}
		tr.record("comm", name, i, start)
	}
	if firstErr != nil {
		fab.Close() // unblock the echo goroutine
		<-echoErr
		return nil, firstErr
	}
	if err := <-echoErr; err != nil {
		return nil, err
	}
	return tr.durs("comm", name), nil
}

func (p *prober) comm(size float64) error {
	small, big := make([]float32, 16), make([]float32, 16<<10)
	mailbox, err := comm.NewWorld(2)
	if err != nil {
		return err
	}
	defer mailbox.Close()
	tcp, err := comm.NewTCPWorld(2)
	if err != nil {
		return err
	}
	defer tcp.Close()
	link, err := newLinkWorld(2, linkAlpha, linkBytesPerSec)
	if err != nil {
		return err
	}
	defer link.Close()

	n := scaled(2000, size, 20)
	for _, c := range []struct {
		metric  string
		fab     fabric
		payload []float32
		n       int
	}{
		{"comm.mailbox_rtt_us_64B", mailbox, small, n},
		{"comm.mailbox_rtt_us_64KB", mailbox, big, n},
		{"comm.tcp_rtt_us_64B", tcp, small, n},
		{"comm.tcp_rtt_us_64KB", tcp, big, n / 4},
	} {
		mallocs0, _ := memCounters()
		rtts, err := pingPong(c.fab, c.payload, c.n, p.tr, c.metric)
		if err != nil {
			return err
		}
		mallocs1, _ := memCounters()
		p.res.set(c.metric, 1e6*median(rtts), len(rtts))
		if c.metric == "comm.tcp_rtt_us_64B" {
			p.res.set("comm.tcp_allocs_per_msg", float64(mallocs1-mallocs0)/float64(2*c.n), 2*c.n)
		}
	}

	// Streaming bandwidth: 1 MB messages one way, one small reply at the end.
	mb := make([]float32, 1<<18)
	count := scaled(64, size, 4)
	var streamErr error
	sec := p.tr.time("comm", "tcp-stream-1MB", 0, func() {
		done := make(chan error, 1)
		go func() {
			for i := 0; i < count; i++ {
				if _, err := tcp.Rank(1).Recv(0, probeTag); err != nil {
					done <- err
					return
				}
			}
			done <- tcp.Rank(1).Send(0, probeTag, small)
		}()
		for i := 0; i < count && streamErr == nil; i++ {
			streamErr = tcp.Rank(0).Send(1, probeTag, mb)
		}
		if streamErr == nil {
			_, streamErr = tcp.Rank(0).Recv(1, probeTag)
		}
		if streamErr != nil {
			tcp.Close() // unblock the receiver
		}
		if err := <-done; streamErr == nil {
			streamErr = err
		}
	}).Seconds()
	if streamErr != nil {
		return streamErr
	}
	p.res.set("comm.tcp_mb_per_s_1MB", float64(count)*float64(len(mb)*4)/1e6/sec, count)

	// The emulated link against its own model: an idle link must take
	// alpha + bytes/beta one way, so a round trip takes twice that.
	rtts, err := pingPong(link, big, scaled(200, size, 5), p.tr, "link-rtt-64KB")
	if err != nil {
		return err
	}
	modelled := 2 * link.delay(int64(len(big)*4)).Seconds()
	p.res.set("comm.link_delay_err_pct", 100*(median(rtts)/modelled-1), len(rtts))
	return nil
}

// collective times the sparse AlltoAll of the captured shards and the
// AllReduce of a W2-sized buffer on 4 ranks with no model attached, on the
// mailbox fabric and over TCP.
func (p *prober) collective(in *probeInput) error {
	for _, c := range []struct{ fabric, a2a, ar string }{
		{fabricMailbox, "collective.alltoall_sparse_us", "collective.allreduce_us"},
		{fabricTCP, "collective.alltoall_sparse_tcp_us", "collective.allreduce_tcp_us"},
	} {
		fab, err := openFabric(c.fabric)
		if err != nil {
			return err
		}
		errs := make([]error, ranks)
		var wg sync.WaitGroup
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cm := collective.NewCommunicator(fab.Rank(r), collective.WithChunkBytes(trainer.DefaultChunkBytes))
				var arena collective.SparseShards
				buf := make([]float32, in.trunkGrads.W2.Len())
				// Only rank 0 records spans; the others just take part.
				timed := func(name string, step int, fn func()) {
					if r == 0 {
						p.tr.time("collective", name, step, fn)
					} else {
						fn()
					}
				}
				for step := 0; step <= p.reps && errs[r] == nil; step++ {
					timed(c.a2a, step, func() {
						errs[r] = cm.AlltoAllSparse("probe/alltoall", step, in.shards, &arena)
					})
					if errs[r] != nil {
						break
					}
					timed(c.ar, step, func() {
						errs[r] = cm.AllReduce("probe/allreduce", step, buf)
					})
				}
				if errs[r] != nil {
					if l, ok := fab.Rank(r).(comm.Leaver); ok {
						l.Leave(errs[r])
					}
				}
			}()
		}
		wg.Wait()
		fab.Close()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		p.res.set(c.a2a, 1e6*median(p.tr.durs("collective", c.a2a)), p.reps+1)
		p.res.set(c.ar, 1e6*median(p.tr.durs("collective", c.ar)), p.reps+1)
	}
	return nil
}

// servePath is one forced resolution path of a lookup.
type servePath struct {
	name               string
	cacheRows, hotRows int
	remote             bool // ids owned by a rank other than the driver
	// exchangesPerRequest is what Stats().Exchanges must grow by per lookup.
	exchangesPerRequest int64
}

var servePaths = []servePath{
	{name: "lru", cacheRows: 64, remote: true},
	{name: "hot", hotRows: 64, remote: true},
	{name: "local"},
	{name: "remote", remote: true, exchangesPerRequest: 1},
}

// probeServePath boots a small dedicated cluster (one driver, one client, no
// batching window), picks ids with partition.ConsistentHash so every lookup
// takes the named path, and returns the lookup times in seconds with the
// Stats() before and after the timed lookups.
func probeServePath(path servePath, n int, tr *tracer) ([]float64, serve.Stats, serve.Stats, error) {
	const vocab, dim = 1024, 64
	m := nn.NewModel(1, vocab, dim, 8)
	c, err := serve.New(modelCheckpoint(1, m.Emb.Table, m.Trunk), serve.Config{
		Ranks: ranks, Drivers: 1, Partition: serve.PartConsistent, TCP: true,
		CacheRows: path.cacheRows, HotRows: path.hotRows, HotPromote: 2, MaxBatch: 1,
	})
	if err != nil {
		return nil, serve.Stats{}, serve.Stats{}, err
	}
	defer c.Close()

	var ids []int64
	for id := int64(0); len(ids) < 4; id++ {
		if (partition.ConsistentHash{}.Owner(id, ranks) != 0) == path.remote {
			ids = append(ids, id)
		}
	}
	lookup := func() error {
		rows, err := c.Router().Lookup(context.Background(), ids)
		if err != nil {
			return err
		}
		for i, id := range ids {
			if !sameBits(rows[i], m.Emb.Table.Row(int(id))) {
				return fmt.Errorf("serve path %s: row %d differs from the checkpoint", path.name, id)
			}
		}
		return nil
	}
	// Untimed: fetch the rows once (filling the LRU) and often enough to
	// promote them into the hot set.
	for i := 0; i < 4; i++ {
		if err := lookup(); err != nil {
			return nil, serve.Stats{}, serve.Stats{}, err
		}
	}
	before := c.Stats()
	var firstErr error
	for i := 0; i < n && firstErr == nil; i++ {
		tr.time("serve", "path."+path.name, i, func() { firstErr = lookup() })
	}
	if firstErr != nil {
		return nil, serve.Stats{}, serve.Stats{}, firstErr
	}
	return tr.durs("serve", "path."+path.name), before, c.Stats(), c.Err()
}

func (p *prober) servePaths(size float64) error {
	n := scaled(1000, size, 10)
	for _, path := range servePaths {
		secs, before, after, err := probeServePath(path, n, p.tr)
		if err != nil {
			return err
		}
		if got := after.Exchanges - before.Exchanges; got != int64(n)*path.exchangesPerRequest {
			return fmt.Errorf("serve path %s: %d exchanges over %d lookups, want %d per lookup",
				path.name, got, n, path.exchangesPerRequest)
		}
		p.res.set("serve.path_us."+path.name, 1e6*median(secs), len(secs))
	}
	return nil
}
