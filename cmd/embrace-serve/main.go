// Command embrace-serve boots a sharded inference deployment from a
// checkpoint written by embrace-train, fires a closed-loop Zipf load at it,
// and prints throughput, latency percentiles, and cache effectiveness.
//
// Usage:
//
//	embrace-train -steps 30 -checkpoint /tmp/model.ckpt
//	embrace-serve -checkpoint /tmp/model.ckpt -ranks 4 -cache 256
//	embrace-serve -checkpoint /tmp/model.ckpt -ranks 4 -drivers 4 \
//	    -partition consistent-hash -replicate 256 -tcp
//
// With -drivers N the first N ranks each run their own ingress (independent
// admission, batching, LRU) and the load clients spread across them;
// -replicate adds the shared hot-shard replica set every ingress serves
// locally. With -compare it runs the identical workload twice — hot-row
// cache on, then off — and prints both reports side by side.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"embrace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("embrace-serve: ")

	var (
		ckpt      = flag.String("checkpoint", "", "checkpoint file to serve (required)")
		ranks     = flag.Int("ranks", 4, "number of serving ranks")
		drivers   = flag.Int("drivers", 1, "ingress drivers (each rank < drivers runs its own front end)")
		part      = flag.String("partition", embrace.ServeRowHash, "embedding partition: row-hash | consistent-hash | column")
		cache     = flag.Int("cache", 256, "per-driver hot-row LRU cache capacity (0 disables)")
		replicate = flag.Int("replicate", 0, "replicated hot-set capacity shared by all drivers (0 disables)")
		tcp       = flag.Bool("tcp", false, "serve over real localhost TCP sockets instead of the in-process fabric")
		batch     = flag.Int("batch", 32, "max requests coalesced per micro-batch")
		window    = flag.Duration("window", 200*time.Microsecond, "micro-batch collection window")
		queue     = flag.Int("queue", 256, "admission queue depth")
		reload    = flag.String("reload", "", "checkpoint to hot-swap in halfway through the load run")
		compare   = flag.Bool("compare", false, "run the workload with cache on then off and compare")

		clients = flag.Int("clients", 8, "closed-loop load clients")
		reqs    = flag.Int("requests", 500, "requests per client")
		perReq  = flag.Int("ids", 4, "ids per lookup / predict window size")
		predict = flag.Bool("predict", false, "issue Predict requests instead of Lookup")
		zipfS   = flag.Float64("zipf-s", 1.3, "Zipf skew exponent (s > 1)")
		zipfV   = flag.Float64("zipf-v", 2, "Zipf offset (v >= 1)")
		seed    = flag.Int64("seed", 1, "load-generator seed")
		timeout = flag.Duration("timeout", 0, "per-request deadline (0 = none)")
	)
	flag.Parse()

	if *ckpt == "" {
		log.Fatal("-checkpoint is required (write one with embrace-train -checkpoint)")
	}

	cfg := embrace.ServeConfig{
		Ranks:       *ranks,
		Drivers:     *drivers,
		Partition:   *part,
		CacheRows:   *cache,
		Replicate:   *replicate,
		TCP:         *tcp,
		MaxBatch:    *batch,
		BatchWindow: *window,
		QueueDepth:  *queue,
	}
	spec := embrace.LoadSpec{
		Clients:       *clients,
		Requests:      *reqs,
		IDsPerRequest: *perReq,
		Predict:       *predict,
		ZipfS:         *zipfS,
		ZipfV:         *zipfV,
		Seed:          *seed,
		Timeout:       *timeout,
	}

	if *compare {
		on := runOnce(*ckpt, cfg, spec, "")
		off := cfg
		off.CacheRows = 0
		offRes := runOnce(*ckpt, off, spec, "")
		fmt.Printf("\n%-10s %10s %10s %10s %10s %10s\n",
			"cache", "qps", "p50 ms", "p99 ms", "max ms", "hit-rate")
		row := func(name string, r result) {
			lat := r.load.Latency
			fmt.Printf("%-10s %10.0f %10.3f %10.3f %10.3f %9.1f%%\n", name, r.load.QPS,
				lat.P50*1e3, lat.P99*1e3, lat.Max*1e3, 100*r.stats.Cache.HitRate())
		}
		row(fmt.Sprintf("on(%d)", cfg.CacheRows), on)
		row("off", offRes)
		return
	}

	runOnce(*ckpt, cfg, spec, *reload)
}

type result struct {
	load  embrace.LoadResult
	stats embrace.ServeStats
}

func runOnce(ckpt string, cfg embrace.ServeConfig, spec embrace.LoadSpec, reload string) result {
	srv, err := embrace.Serve(ckpt, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	fabric := "in-process"
	if cfg.TCP {
		fabric = "tcp"
	}
	fmt.Printf("serving %s: ranks=%d drivers=%d partition=%s fabric=%s cache=%d replicate=%d batch=%d/%s\n",
		ckpt, cfg.Ranks, cfg.Drivers, cfg.Partition, fabric, cfg.CacheRows, cfg.Replicate, cfg.MaxBatch, cfg.BatchWindow)

	done := make(chan struct{})
	if reload != "" {
		go func() {
			defer close(done)
			time.Sleep(50 * time.Millisecond)
			if err := srv.Reload(reload); err != nil {
				log.Printf("reload: %v", err)
				return
			}
			fmt.Printf("hot-swapped %s with zero downtime\n", reload)
		}()
	} else {
		close(done)
	}

	res := srv.RunLoad(spec)
	<-done
	st := srv.Stats()

	fmt.Printf("load: %s\n", res)
	for _, dl := range res.PerDriver {
		fmt.Printf("  driver %d: req=%d err=%d qps=%.0f lat{%s}\n",
			dl.Driver, dl.Requests, dl.Errors, dl.QPS, dl.Latency)
	}
	fmt.Printf("serve: batches=%d exchanges=%d packed=%d coalesced=%d overloaded=%d expired=%d reloads=%d\n",
		st.Batches, st.Exchanges, st.Packed, st.Coalesced, st.Overloaded, st.Expired, st.Reloads)
	fmt.Printf("cache: hits=%d misses=%d evictions=%d hit-rate=%.1f%%\n",
		st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions, 100*st.Cache.HitRate())
	if st.Hot.Resident > 0 || st.Hot.Hits > 0 {
		fmt.Printf("hot-set: resident=%d hits=%d misses=%d hit-rate=%.1f%%\n",
			st.Hot.Resident, st.Hot.Hits, st.Hot.Misses, 100*st.Hot.HitRate())
	}
	fmt.Printf("latency: %s\n", st.Latency)
	return result{load: res, stats: st}
}
