package main

import (
	"time"

	"embrace/internal/data"
	"embrace/internal/strategies"
	"embrace/internal/trainer"
)

// ranks is the world size of every workload: four goroutine ranks in one
// process.
const ranks = 4

// refSeconds is the length of a timed run on the reference box (2 vCPU,
// go1.24). Runs are fixed-count — the same steps or requests on every commit,
// because a step's cost drifts as training proceeds and a lookup's as the
// heap grows, so a run that stopped on the clock would measure different
// work on a faster build. The counts below take about refSeconds there;
// -seconds scales every one of them in proportion.
const refSeconds = 15

// Fabrics a training workload can run on.
const (
	fabricTCP     = "tcp"
	fabricMailbox = "mailbox"
	fabricLink    = "slowlink"
)

// workload is one named set of inputs. Exactly one of train and serve is set.
type workload struct {
	name  string
	why   string
	train *trainSpec
	serve *serveSpec
}

// trainSpec shapes a training workload: EmbRace with 2D scheduling and Adam
// on the named fabric.
type trainSpec struct {
	fabric                string
	vocab, embDim, hidden int
	sentences, window     int
	// warmSteps run untimed in set-up, steps are timed.
	warmSteps, steps int
	// The regime the workload exists for: the trunk's fp+bp share of rank-0
	// step time, checked by the traced pass.
	trunkShareMin, trunkShareMax float64
}

// serveSpec shapes a serving workload: 4 ranks, 2 drivers, consistent-hash
// ownership over loopback TCP, 8 closed-loop clients.
type serveSpec struct {
	vocab, dim, hidden int
	cacheRows, hotRows int
	idsPerRequest      int
	zipf               bool // Zipf(1.2, 2) ids; uniform otherwise
	// Per client: warmRequests untimed in set-up, requests timed.
	warmRequests, requests int
	// The regime: Exchanges/Batches over the timed run.
	exchMin, exchMax float64
}

const (
	serveDrivers = 2
	serveClients = 8
	zipfS, zipfV = 1.2, 2
	// pretrainSteps trains the model whose checkpoint the serve workloads
	// load, so they serve trained weights and can report its loss.
	pretrainSteps = 20
)

var workloads = []workload{
	{
		name: "train_sparse_tcp",
		why:  "embedding work dwarfs the trunk over loopback TCP: tensor kernels, AlltoAllSparse, gob+socket and sparse Adam do most of the work",
		train: &trainSpec{fabric: fabricTCP, vocab: 16384, embDim: 128, hidden: 8, sentences: 4, window: 256,
			warmSteps: 20, steps: 480, trunkShareMax: 0.25},
	},
	{
		name: "train_dense",
		why:  "the dense trunk dominates on the in-process fabric: the bypass workload for every sparse-path or wire optimisation",
		train: &trainSpec{fabric: fabricMailbox, vocab: 4096, embDim: 64, hidden: 128, sentences: 64, window: 8,
			warmSteps: 5, steps: 96, trunkShareMin: 0.60, trunkShareMax: 1},
	},
	{
		name: "train_slowlink",
		why:  "train_sparse_tcp's model on an emulated 100 MB/s, 200 us link where wire time is sleep, so overlap and fewer wire bytes shorten the step",
		train: &trainSpec{fabric: fabricLink, vocab: 16384, embDim: 128, hidden: 8, sentences: 4, window: 256,
			warmSteps: 10, steps: 290, trunkShareMax: 1},
	},
	{
		name: "serve_hot",
		why:  "Zipf lookups whose working set fits the LRU and hot set, so admission, batching and the caches do the work and the fabric is idle",
		serve: &serveSpec{vocab: 1024, dim: 64, hidden: 8, cacheRows: 1024, hotRows: 512, idsPerRequest: 4, zipf: true,
			warmRequests: 1500, requests: 12000, exchMax: 0.05},
	},
	{
		name: "serve_cold",
		why:  "uniform lookups over a vocabulary far larger than the caches, so every batch rides the ctl broadcast and the sparse AlltoAll",
		serve: &serveSpec{vocab: 65536, dim: 64, hidden: 8, cacheRows: 256, hotRows: 256, idsPerRequest: 8,
			warmRequests: 300, requests: 9000, exchMin: 0.95, exchMax: 1},
	},
}

// trainedBy is the training that produces the model a serving workload
// serves: a sentence is one lookup's ids, on the in-process fabric. pretrain
// runs pretrainSteps of it; the traced pass traces a quarter of steps.
func (s *serveSpec) trainedBy() *trainSpec {
	return &trainSpec{fabric: fabricMailbox, vocab: s.vocab, embDim: s.dim, hidden: s.hidden,
		sentences: 8, window: s.idsPerRequest, warmSteps: 2, steps: 2 * pretrainSteps, trunkShareMax: 1}
}

// servedAs is the serving load the traced pass of a training workload puts
// on the model it trained: serve_hot's request and cache shape over the
// workload's own vocabulary, so nothing about it is tuned.
func (s *trainSpec) servedAs() *serveSpec {
	hot := *workloadByName("serve_hot").serve
	hot.vocab, hot.dim, hot.hidden = s.vocab, s.embDim, s.hidden
	hot.warmRequests, hot.requests = hot.warmRequests/4, hot.requests/4
	hot.exchMax = 1
	return &hot
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// modelSeed initialises every model. It is part of the program's
// configuration, not of its input: -seed feeds the data generators and the
// lookup id streams only. A step's cost depends on where training has taken
// the weights, and a different initialisation per seed made train_dense's
// step time differ by 8% from seed to seed.
const modelSeed = 1

// job is the trainer.Job the harness step loop and trainer.Run both accept,
// so the two can be compared on the same configuration.
func (s *trainSpec) job(seed int64, sched strategies.SchedMode) trainer.Job {
	return trainer.Job{
		Strategy: strategies.EmbRace,
		Workers:  ranks,
		Steps:    1, // the harness runs its own step count
		Window:   s.window,
		Model: strategies.Config{
			Seed: modelSeed, Vocab: s.vocab, EmbDim: s.embDim, Hidden: s.hidden,
			Optimizer: strategies.OptAdam, LR: 1e-3, Sched: sched,
		},
		Data: data.Config{
			VocabSize: s.vocab, BatchSentences: s.sentences,
			MaxSeqLen: s.window + 1, MinSeqLen: s.window + 1,
			ZipfS: zipfS, ZipfV: zipfV,
		},
		DataSeed: seed * 1000,
		OverTCP:  s.fabric == fabricTCP,
	}
}

// metricDef describes one reported number.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen
	// moves says, for a per-layer metric, which end-to-end metric on which
	// workload it is expected to move.
	moves string
}

// End-to-end metrics. Every workload reports every one of them; the three
// that depend on the kind of work are defined per family:
//
//   - throughput_per_s: train_* non-pad tokens per second at the fastest
//     step; serve_* completed lookups per second, median segment.
//   - latency_ms: train_* the fastest rank-0 step; serve_* the median lookup.
//   - latency_ms_tail: train_* the fastest step of the run's second half
//     (what heap growth adds as the run goes on); serve_* the lookup p95.
//
// README.md says why training reports its fastest step and serving not its
// p99. The bounds are the largest the driver allows for times, and three
// times the widest quartile distance README.md records for the rest.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "throughput_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_ms_tail", unit: "ms", better: "lower", bound: 0.25},
	{name: "final_loss", unit: "nat", better: "lower", bound: 0.10},
	{name: "retained_heap_mb", unit: "MB", better: "lower", bound: 0.10},
}

// Per-layer metrics, from the traced pass.
var perLayer = []metricDef{
	{name: "tensor.coalesce_ns_per_row", unit: "ns", better: "lower", moves: "latency_ms@train_sparse_tcp"},
	{name: "tensor.bucket_ns_per_id", unit: "ns", better: "lower", moves: "latency_ms@train_sparse_tcp"},
	{name: "tensor.vsplit_ns_per_row", unit: "ns", better: "lower", moves: "latency_ms@train_sparse_tcp"},
	{name: "tensor.colslice_ns_per_row", unit: "ns", better: "lower", moves: "latency_ms@train_sparse_tcp"},
	{name: "tensor.coalesce_keep_ratio", unit: "ratio", better: "lower", moves: "latency_ms@train_sparse_tcp"},
	{name: "sched.vsplit_us", unit: "us", better: "lower", moves: "latency_ms@train_slowlink"},
	{name: "sched.prior_row_share", unit: "ratio", better: "lower", moves: "latency_ms@train_slowlink"},
	{name: "compress.delta_encode_ns_per_row", unit: "ns", better: "lower", moves: "throughput_per_s@train_slowlink"},
	{name: "compress.delta_decode_ns_per_row", unit: "ns", better: "lower", moves: "throughput_per_s@train_slowlink"},
	{name: "compress.dualq_encode_ns_per_row", unit: "ns", better: "lower", moves: "throughput_per_s@train_slowlink"},
	{name: "compress.dualq_decode_ns_per_row", unit: "ns", better: "lower", moves: "throughput_per_s@train_slowlink"},
	{name: "compress.delta_ratio", unit: "ratio", better: "higher", moves: "throughput_per_s@train_slowlink"},
	{name: "compress.dualq_ratio", unit: "ratio", better: "higher", moves: "throughput_per_s@train_slowlink"},
	{name: "comm.mailbox_rtt_us_64B", unit: "us", better: "lower", moves: "latency_ms@train_dense"},
	{name: "comm.mailbox_rtt_us_64KB", unit: "us", better: "lower", moves: "latency_ms@train_dense"},
	{name: "comm.tcp_rtt_us_64B", unit: "us", better: "lower", moves: "latency_ms@serve_cold"},
	{name: "comm.tcp_rtt_us_64KB", unit: "us", better: "lower", moves: "latency_ms@train_sparse_tcp"},
	{name: "comm.tcp_mb_per_s_1MB", unit: "MB/s", better: "higher", moves: "latency_ms@train_sparse_tcp"},
	{name: "comm.tcp_allocs_per_msg", unit: "count", better: "lower", moves: "throughput_per_s@serve_cold"},
	{name: "comm.link_delay_err_pct", unit: "%", better: "lower", moves: "latency_ms@train_slowlink"},
	{name: "collective.alltoall_sparse_us", unit: "us", better: "lower", moves: "latency_ms@train_slowlink"},
	{name: "collective.alltoall_sparse_tcp_us", unit: "us", better: "lower", moves: "latency_ms@train_sparse_tcp"},
	{name: "collective.allreduce_us", unit: "us", better: "lower", moves: "latency_ms@train_dense"},
	{name: "collective.allreduce_tcp_us", unit: "us", better: "lower", moves: "latency_ms@train_sparse_tcp"},
	{name: "collective.wire_bytes_per_step", unit: "B", better: "lower", moves: "latency_ms@train_slowlink"},
	{name: "collective.calls_per_step", unit: "count", better: "lower", moves: "latency_ms@train_sparse_tcp"},
	{name: "collective.recv_blocked_share", unit: "ratio", better: "lower", moves: "latency_ms@train_slowlink"},
	{name: "collective.faults_masked", unit: "count", better: "lower", moves: "retained_heap_mb@train_sparse_tcp"},
	{name: "nn.forward_ms", unit: "ms", better: "lower", moves: "latency_ms@train_dense"},
	{name: "nn.backward_ms", unit: "ms", better: "lower", moves: "latency_ms@train_dense"},
	{name: "nn.backward_alloc_mb", unit: "MB", better: "lower", moves: "latency_ms@train_dense"},
	{name: "nn.pool_lookup_us", unit: "us", better: "lower", moves: "latency_ms@train_sparse_tcp"},
	{name: "nn.pool_backward_us", unit: "us", better: "lower", moves: "latency_ms@train_sparse_tcp"},
	{name: "optim.adam_sparse_ns_per_row", unit: "ns", better: "lower", moves: "latency_ms@train_sparse_tcp"},
	{name: "optim.adam_dense_ns_per_elem", unit: "ns", better: "lower", moves: "latency_ms@train_dense"},
	{name: "partition.owner_ns", unit: "ns", better: "lower", moves: "latency_ms_tail@serve_cold"},
	{name: "partition.load_imbalance", unit: "ratio", better: "lower", moves: "latency_ms_tail@serve_cold"},
	{name: "strategies.phase_ms.fp", unit: "ms", better: "lower", moves: "latency_ms@train_dense"},
	{name: "strategies.phase_ms.bp", unit: "ms", better: "lower", moves: "latency_ms@train_dense"},
	{name: "strategies.phase_ms.lookup", unit: "ms", better: "lower", moves: "latency_ms@train_sparse_tcp"},
	{name: "strategies.phase_ms.xchg_emb", unit: "ms", better: "lower", moves: "latency_ms@train_sparse_tcp"},
	{name: "strategies.phase_ms.xchg_prior", unit: "ms", better: "lower", moves: "latency_ms@train_sparse_tcp"},
	{name: "strategies.phase_ms.xchg_delayed", unit: "ms", better: "lower", moves: "throughput_per_s@train_slowlink"},
	{name: "strategies.phase_ms.xchg_dense", unit: "ms", better: "lower", moves: "latency_ms@train_dense"},
	{name: "strategies.phase_ms.vsplit", unit: "ms", better: "lower", moves: "latency_ms@train_sparse_tcp"},
	{name: "strategies.phase_ms.harvest", unit: "ms", better: "lower", moves: "throughput_per_s@train_slowlink"},
	{name: "strategies.phase_ms.opt", unit: "ms", better: "lower", moves: "latency_ms@train_sparse_tcp"},
	{name: "strategies.overlap_share", unit: "ratio", better: "higher", moves: "throughput_per_s@train_slowlink"},
	{name: "strategies.allocs_per_step", unit: "count", better: "lower", moves: "retained_heap_mb@train_dense"},
	{name: "strategies.alloc_mb_per_step", unit: "MB", better: "lower", moves: "retained_heap_mb@train_dense"},
	{name: "strategies.nosched_step_ms", unit: "ms", better: "lower", moves: "throughput_per_s@train_slowlink"},
	{name: "strategies.sched2d_gain", unit: "ratio", better: "higher", moves: "throughput_per_s@train_slowlink"},
	{name: "trainer.step_ms_p50", unit: "ms", better: "lower", moves: "none: guards the harness"},
	{name: "trainer.step_ms_p95", unit: "ms", better: "lower", moves: "none: guards the harness"},
	{name: "trainer.trace_overhead_pct", unit: "%", better: "lower", moves: "none: guards the harness"},
	{name: "trainer.loss_digest_equal", unit: "bool", better: "higher", moves: "none: guards the harness"},
	{name: "serve.path_us.lru", unit: "us", better: "lower", moves: "latency_ms@serve_hot"},
	{name: "serve.path_us.hot", unit: "us", better: "lower", moves: "latency_ms@serve_hot"},
	{name: "serve.path_us.local", unit: "us", better: "lower", moves: "latency_ms@serve_cold"},
	{name: "serve.path_us.remote", unit: "us", better: "lower", moves: "throughput_per_s@serve_cold"},
	{name: "serve.batch_size_mean", unit: "count", better: "higher", moves: "throughput_per_s@serve_hot"},
	{name: "serve.queue_wait_ms_p50", unit: "ms", better: "lower", moves: "latency_ms@serve_hot"},
	{name: "serve.exchanges_per_batch", unit: "ratio", better: "lower", moves: "throughput_per_s@serve_cold"},
	{name: "serve.lru_hit_share", unit: "ratio", better: "higher", moves: "latency_ms@serve_hot"},
	{name: "serve.hot_hit_share", unit: "ratio", better: "higher", moves: "latency_ms@serve_hot"},
	{name: "serve.remote_row_share", unit: "ratio", better: "lower", moves: "latency_ms_tail@serve_cold"},
	{name: "serve.coalesced_share", unit: "ratio", better: "higher", moves: "latency_ms@serve_hot"},
	{name: "serve.allocs_per_lookup", unit: "count", better: "lower", moves: "retained_heap_mb@serve_cold"},
	{name: "serve.lookup_ms_p99", unit: "ms", better: "lower", moves: "latency_ms_tail@serve_cold"},
	{name: "serve.lookup_ms_p999", unit: "ms", better: "lower", moves: "latency_ms_tail@serve_cold"},
	{name: "serve.open_ms_p50", unit: "ms", better: "lower", moves: "latency_ms@serve_cold"},
	{name: "serve.open_ms_p99", unit: "ms", better: "lower", moves: "latency_ms_tail@serve_cold"},
	{name: "serve.gen_late_ms_max", unit: "ms", better: "lower", moves: "none: guards the open-loop generator"},
	{name: "checkpoint.load_ms", unit: "ms", better: "lower", moves: "setup_s@serve_cold"},
}

// Open-loop diagnostic: fixed arrival rate, latency counted from the due
// time so a stall is charged to every request it delays.
const (
	openLoopRate    = 2000 // requests per second
	openLoopSeconds = 5 * time.Second
)
