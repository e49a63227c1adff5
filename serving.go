package embrace

import (
	"context"
	"time"

	"embrace/internal/checkpoint"
	"embrace/internal/comm"
	"embrace/internal/serve"
)

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

// Embedding partitioning schemes for serving (§4.1.1 applied to inference).
const (
	// ServeRowHash shards full embedding rows by token-id hash.
	ServeRowHash = serve.PartRowHash
	// ServeColumn gives every rank a 1/N column slice of every row —
	// EmbRace's balanced layout.
	ServeColumn = serve.PartColumn
	// ServeConsistent shards full rows on a consistent-hash ring: like
	// ServeRowHash one rank owns each row, but ownership stays stable when
	// the rank set resizes.
	ServeConsistent = serve.PartConsistent
)

// ServeConfig describes a serving deployment booted from a checkpoint.
type ServeConfig struct {
	// Ranks is the number of serving ranks (default 1); every rank holds an
	// embedding shard, and the first Drivers ranks also front the cluster.
	Ranks int
	// Drivers is how many ranks run their own ingress — admission queue,
	// micro-batcher, hot-row LRU (default 1, clamped to Ranks). Concurrent
	// drivers serve independently and never collide: each one's cross-rank
	// exchanges ride its own tag plane.
	Drivers int
	// Partition is ServeRowHash (default), ServeColumn, or ServeConsistent.
	Partition string
	// CacheRows bounds each driver's hot-row LRU cache; 0 disables it.
	CacheRows int
	// Replicate bounds the replicated hot set shared by every driver; 0
	// disables hot-shard replication. Rows the cluster keeps seeing are
	// promoted into it and served by every ingress without touching the
	// fabric; Reload invalidates all replicas.
	Replicate int
	// TCP serves over real localhost TCP sockets instead of the in-process
	// fabric — the configuration the scale benchmark measures. Incompatible
	// with ChaosSeed.
	TCP bool
	// MaxBatch and BatchWindow control request micro-batching (defaults 32
	// and 200µs): the front end coalesces up to MaxBatch requests arriving
	// within the window and dedups their ids before touching the shards.
	MaxBatch    int
	BatchWindow time.Duration
	// QueueDepth bounds the admission queue (default 256); a full queue
	// fails fast with a typed overload error.
	QueueDepth int
	// ChaosSeed, when non-zero, serves over the deterministic
	// fault-injecting fabric (see TrainConfig.ChaosSeed); the self-healing
	// collectives keep responses bit-identical.
	ChaosSeed int64
}

func (c ServeConfig) internal() serve.Config {
	cfg := serve.Config{
		Ranks:       c.Ranks,
		Drivers:     c.Drivers,
		Partition:   c.Partition,
		CacheRows:   c.CacheRows,
		HotRows:     c.Replicate,
		MaxBatch:    c.MaxBatch,
		BatchWindow: c.BatchWindow,
		QueueDepth:  c.QueueDepth,
		TCP:         c.TCP,
	}
	if c.ChaosSeed != 0 {
		plan := comm.MaskableChaosPlan(c.ChaosSeed)
		cfg.Chaos = &plan
	}
	return cfg
}

// Server is a live multi-rank inference deployment. Lookup and Predict are
// safe for concurrent use; stop it with Close.
type Server struct {
	c *serve.Cluster
}

// Serve boots a serving cluster from a checkpoint file written by Train
// (TrainConfig.CheckpointPath). The embedding table is partitioned across
// the ranks, the dense trunk replicated, and the returned server answers
// immediately.
func Serve(checkpointPath string, cfg ServeConfig) (*Server, error) {
	ck, err := checkpoint.LoadFile(checkpointPath)
	if err != nil {
		return nil, err
	}
	c, err := serve.New(ck, cfg.internal())
	if err != nil {
		return nil, err
	}
	return &Server{c: c}, nil
}

// Lookup resolves the embedding rows of ids, in order (duplicates allowed).
// ctx's deadline becomes the request deadline.
func (s *Server) Lookup(ctx context.Context, ids []int64) ([][]float32, error) {
	return s.c.Lookup(ctx, ids)
}

// Predict mean-pools the window's embedding rows, runs the trunk forward,
// and returns the argmax next token with its probability — bit-identical to
// the training model's forward pass over the served checkpoint.
func (s *Server) Predict(ctx context.Context, window []int64) (int64, float32, error) {
	return s.c.Predict(ctx, window)
}

// Reload atomically swaps in a new checkpoint with zero downtime: in-flight
// batches finish on the old snapshot, the swap happens between batches on
// every rank, and the hot-row cache is invalidated. After Reload returns,
// responses are exactly what a fresh Serve of the new checkpoint would give.
func (s *Server) Reload(checkpointPath string) error {
	ck, err := checkpoint.LoadFile(checkpointPath)
	if err != nil {
		return err
	}
	return s.c.Reload(ck)
}

// Close shuts the deployment down; pending requests fail with a typed
// closed error. Idempotent.
func (s *Server) Close() { s.c.Close() }

// ServeStats is a snapshot of a server's counters. Stats gives the
// cluster-wide aggregate (per-driver counters summed, latency histograms
// merged exactly); DriverStats one ingress's slice of it. Latencies are in
// seconds.
type ServeStats = serve.Stats

// Stats snapshots the server's cluster-wide counters.
func (s *Server) Stats() ServeStats { return s.c.Stats() }

// Drivers returns the number of ingress drivers serving.
func (s *Server) Drivers() int { return s.c.Drivers() }

// DriverStats snapshots one ingress's own counters (cluster-level fields —
// Packed, Reloads, hot set — are zero in this view).
func (s *Server) DriverStats(d int) ServeStats { return s.c.DriverStats(d) }

// LoadSpec parameterizes a closed-loop Zipf load run against a server: each
// of Clients goroutines issues Requests back-to-back.
type LoadSpec = serve.LoadConfig

// LoadResult reports a completed load run. Top-level numbers aggregate every
// driver (latency percentiles from an exact histogram merge); PerDriver
// breaks the run down by ingress.
type LoadResult = serve.LoadReport

// DriverLoadResult is one ingress's share of a load run.
type DriverLoadResult = serve.DriverLoad

// RunLoad fires the closed-loop workload at the server and reports
// throughput and latency percentiles.
func (s *Server) RunLoad(spec LoadSpec) LoadResult { return serve.RunLoad(s.c, spec) }
