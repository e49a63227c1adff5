package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"embrace/internal/metrics"
)

// LoadConfig parameterizes a closed-loop load run: Clients goroutines each
// issue Requests back-to-back (a new request the moment the previous one
// answers), drawing ids from the Zipf distribution that models real lookup
// traffic. Closed-loop load measures the system's sustainable throughput
// rather than an arrival-rate fiction.
//
// With a multi-driver cluster, client cl pins to ingress cl mod Drivers —
// the external-load-balancer model — so every driver sees its own closed
// loop and the merged report measures the whole serving plane.
type LoadConfig struct {
	// Clients is the number of concurrent closed-loop clients (default 4).
	Clients int
	// Requests is how many requests each client issues (default 100).
	Requests int
	// IDsPerRequest is the lookup size / predict window (default 4).
	IDsPerRequest int
	// Predict switches the workload from Lookup to Predict requests.
	Predict bool
	// ZipfS and ZipfV shape the id skew (defaults 1.3 and 2, matching the
	// synthetic training corpus).
	ZipfS, ZipfV float64
	// Seed makes each client's id stream deterministic (client i uses
	// Seed+i), so two runs against different configurations see identical
	// request sequences.
	Seed int64
	// Timeout, when positive, attaches a per-request deadline.
	Timeout time.Duration
}

func (l LoadConfig) withDefaults() LoadConfig {
	if l.Clients <= 0 {
		l.Clients = 4
	}
	if l.Requests <= 0 {
		l.Requests = 100
	}
	if l.IDsPerRequest <= 0 {
		l.IDsPerRequest = 4
	}
	if l.ZipfS <= 1 {
		l.ZipfS = 1.3
	}
	if l.ZipfV < 1 {
		l.ZipfV = 2
	}
	return l
}

// DriverLoad is one ingress's share of a load run.
type DriverLoad struct {
	// Driver is the ingress rank the clients pinned to.
	Driver int
	// Requests issued through this driver; Errors (with Overloaded and
	// Expired broken out) how many failed.
	Requests, Errors, Overloaded, Expired int64
	// QPS is this driver's completed requests over the run's wall clock.
	QPS float64
	// Latency digests this driver's per-request latency.
	Latency metrics.Summary
}

// LoadReport summarizes one load run. The top-level numbers aggregate the
// whole serving plane: counters summed, per-driver latency histograms merged
// exactly (metrics.Histogram.Merge), so the combined percentiles carry no
// averaging error.
type LoadReport struct {
	// Requests issued; Errors how many failed, with Overloaded and Expired
	// broken out of that count.
	Requests, Errors, Overloaded, Expired int64
	// Elapsed is the wall-clock span of the run; QPS the completed
	// (non-error) requests per second over it.
	Elapsed time.Duration
	QPS     float64
	// Latency digests per-request latency as observed by the clients,
	// merged across all drivers.
	Latency metrics.Summary
	// PerDriver breaks the run down by ingress, one entry per driver.
	PerDriver []DriverLoad
}

// String renders the report for benchmark logs.
func (r LoadReport) String() string {
	return fmt.Sprintf("req=%d err=%d (overloaded=%d expired=%d) elapsed=%s qps=%.0f drivers=%d lat{%s}",
		r.Requests, r.Errors, r.Overloaded, r.Expired,
		r.Elapsed.Round(time.Millisecond), r.QPS, len(r.PerDriver), r.Latency)
}

// driverTally accumulates one ingress's share of the run. The histogram is
// concurrency-safe; the counters are folded under the tally mutex.
type driverTally struct {
	mu                        sync.Mutex
	requests, errs, over, exp int64
	lat                       *metrics.Histogram
}

// RunLoad fires cfg's closed-loop workload at the cluster, client cl pinned
// to driver cl mod Drivers, and reports merged plus per-driver throughput
// and latency. It is synchronous: it returns when every client has finished.
func RunLoad(c *Cluster, cfg LoadConfig) LoadReport {
	cfg = cfg.withDefaults()
	drivers := c.Drivers()
	tallies := make([]*driverTally, drivers)
	for d := range tallies {
		tallies[d] = &driverTally{lat: metrics.NewHistogram()}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for cl := 0; cl < cfg.Clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			tally := tallies[cl%drivers]
			router := c.RouterAt(cl % drivers)
			rng := rand.New(rand.NewSource(cfg.Seed + int64(cl)))
			zipf := rand.NewZipf(rng, cfg.ZipfS, cfg.ZipfV, uint64(c.vocab-1))
			ids := make([]int64, cfg.IDsPerRequest)
			var nerr, nover, nexp int64
			for i := 0; i < cfg.Requests; i++ {
				for k := range ids {
					ids[k] = int64(zipf.Uint64())
				}
				ctx := context.Background()
				var cancel context.CancelFunc
				if cfg.Timeout > 0 {
					ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
				}
				t0 := time.Now()
				var err error
				if cfg.Predict {
					_, _, err = router.Predict(ctx, ids)
				} else {
					_, err = router.Lookup(ctx, ids)
				}
				if cancel != nil {
					cancel()
				}
				if err != nil {
					nerr++
					switch {
					case errors.Is(err, ErrOverloaded):
						nover++
					case errors.Is(err, ErrDeadline):
						nexp++
					}
					continue
				}
				tally.lat.ObserveDuration(time.Since(t0))
			}
			tally.mu.Lock()
			tally.requests += int64(cfg.Requests)
			tally.errs += nerr
			tally.over += nover
			tally.exp += nexp
			tally.mu.Unlock()
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(start)

	merged := metrics.NewHistogram()
	rep := LoadReport{Elapsed: elapsed, PerDriver: make([]DriverLoad, drivers)}
	for d, tally := range tallies {
		tally.mu.Lock()
		dl := DriverLoad{
			Driver:     d,
			Requests:   tally.requests,
			Errors:     tally.errs,
			Overloaded: tally.over,
			Expired:    tally.exp,
			Latency:    tally.lat.Summary(),
		}
		tally.mu.Unlock()
		if elapsed > 0 {
			dl.QPS = float64(dl.Requests-dl.Errors) / elapsed.Seconds()
		}
		rep.PerDriver[d] = dl
		rep.Requests += dl.Requests
		rep.Errors += dl.Errors
		rep.Overloaded += dl.Overloaded
		rep.Expired += dl.Expired
		merged.Merge(tally.lat)
	}
	rep.Latency = merged.Summary()
	if elapsed > 0 {
		rep.QPS = float64(rep.Requests-rep.Errors) / elapsed.Seconds()
	}
	return rep
}
