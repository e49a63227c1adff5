package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"embrace/internal/comm"
	"embrace/internal/nn"
)

// TestMultiDriverExactness is the driver-set acceptance test: with 4 ranks,
// every partition scheme, and drivers in {1, 2, 4}, concurrent traffic round-
// robined across all ingresses — caching, hot-shard replication, batching,
// and dedup all on — must stay bit-identical to the single-rank, cache-free
// forward pass, including across a mid-suite checkpoint reload. Drivers == 1
// is the single-driver baseline; the larger driver sets must be
// indistinguishable from it response-for-response.
func TestMultiDriverExactness(t *testing.T) {
	mA := nn.NewModel(31, testVocab, testDim, testHid)
	mB := nn.NewModel(32, testVocab, testDim, testHid)
	refA, refB := reference{mA}, reference{mB}
	ckA, ckB := ckptOf(mA, 10), ckptOf(mB, 20)

	for _, part := range []string{PartRowHash, PartConsistent, PartColumn} {
		for _, drivers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/drivers=%d", part, drivers), func(t *testing.T) {
				c, err := New(ckA, Config{
					Ranks:       4,
					Drivers:     drivers,
					Partition:   part,
					CacheRows:   16,
					HotRows:     16,
					HotPromote:  2,
					MaxBatch:    8,
					BatchWindow: time.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if c.Drivers() != drivers {
					t.Fatalf("Drivers() = %d, want %d", c.Drivers(), drivers)
				}

				check := func(ref reference, tag string) {
					var wg sync.WaitGroup
					errs := make(chan error, 2*len(requestSet()))
					for i, ids := range requestSet() {
						// Half the traffic pins a specific ingress, half goes
						// through the cluster round-robin — both entry points
						// must agree with the reference.
						r := c.RouterAt(i % drivers)
						wg.Add(1)
						go func(ids []int64) {
							defer wg.Done()
							got, err := r.Lookup(context.Background(), ids)
							if err != nil {
								errs <- fmt.Errorf("%s: lookup %v: %w", tag, ids, err)
								return
							}
							if !rowsEqual(got, ref.lookup(ids)) {
								errs <- fmt.Errorf("%s: lookup %v not bit-identical", tag, ids)
							}
						}(ids)
						wg.Add(1)
						go func(ids []int64) {
							defer wg.Done()
							tok, prob, err := c.Predict(context.Background(), ids)
							if err != nil {
								errs <- fmt.Errorf("%s: predict %v: %w", tag, ids, err)
								return
							}
							wantTok, wantProb := ref.predict(ids)
							if tok != wantTok || prob != wantProb {
								errs <- fmt.Errorf("%s: predict %v = (%d, %g), want (%d, %g)",
									tag, ids, tok, prob, wantTok, wantProb)
							}
						}(ids)
					}
					wg.Wait()
					close(errs)
					for err := range errs {
						t.Error(err)
					}
				}

				check(refA, "ckptA")
				st := c.Stats()
				if st.Drivers != drivers {
					t.Errorf("Stats().Drivers = %d, want %d", st.Drivers, drivers)
				}
				if st.Coalesced == 0 {
					t.Error("dedup never coalesced a duplicate id")
				}
				if st.Hot.Promotions == 0 {
					t.Error("Zipf-ish workload promoted nothing into the hot set")
				}

				if err := c.Reload(ckB); err != nil {
					t.Fatalf("reload: %v", err)
				}
				check(refB, "ckptB")
				st = c.Stats()
				if st.Reloads != 1 {
					t.Errorf("reloads = %d", st.Reloads)
				}
				if st.Hot.Invalidations != 1 {
					t.Errorf("hot invalidations = %d, want 1", st.Hot.Invalidations)
				}
				if err := c.Err(); err != nil {
					t.Fatalf("cluster error: %v", err)
				}
			})
		}
	}
}

// TestStatsAggregateMerge is the satellite-1 unit check: Cluster.Stats must
// equal the hand-computed sum of every driver's DriverStats — counters
// summed field by field, histogram counts additive — so the cluster-wide
// view is a true aggregate, not rank 0's view wearing a new name.
func TestStatsAggregateMerge(t *testing.T) {
	const drivers = 4
	m := nn.NewModel(33, testVocab, testDim, testHid)
	c, err := New(ckptOf(m, 1), Config{
		Ranks:       4,
		Drivers:     drivers,
		Partition:   PartConsistent,
		CacheRows:   8,
		MaxBatch:    4,
		BatchWindow: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Uneven, deterministic per-driver load so the per-driver counters are
	// actually distinct: driver d gets d+1 rounds of lookups plus d predicts.
	ctx := context.Background()
	for d := 0; d < drivers; d++ {
		r := c.RouterAt(d)
		for round := 0; round <= d; round++ {
			for _, ids := range [][]int64{{1, 2, 3}, {1, 1, 7, 7}, {int64(10 + d)}} {
				if _, err := r.Lookup(ctx, ids); err != nil {
					t.Fatal(err)
				}
			}
		}
		for p := 0; p < d; p++ {
			if _, _, err := r.Predict(ctx, []int64{1, 2, 3, 4}); err != nil {
				t.Fatal(err)
			}
		}
	}

	var sum Stats
	meanLo, meanHi := math.Inf(1), math.Inf(-1) // per-driver mean latency range
	for d := 0; d < drivers; d++ {
		ds := c.DriverStats(d)
		if ds.Drivers != 1 {
			t.Errorf("DriverStats(%d).Drivers = %d, want 1", d, ds.Drivers)
		}
		wantReq := int64(3*(d+1) + d)
		if ds.Requests != wantReq {
			t.Errorf("driver %d requests = %d, want %d", d, ds.Requests, wantReq)
		}
		sum.Requests += ds.Requests
		sum.Lookups += ds.Lookups
		sum.Predicts += ds.Predicts
		sum.Batches += ds.Batches
		sum.Exchanges += ds.Exchanges
		sum.Coalesced += ds.Coalesced
		sum.LocalRows += ds.LocalRows
		sum.RemoteRows += ds.RemoteRows
		sum.Overloaded += ds.Overloaded
		sum.Expired += ds.Expired
		sum.Cache.Hits += ds.Cache.Hits
		sum.Cache.Misses += ds.Cache.Misses
		sum.Cache.Evictions += ds.Cache.Evictions
		sum.Latency.Count += ds.Latency.Count
		sum.Latency.Sum += ds.Latency.Sum
		sum.QueueWait.Count += ds.QueueWait.Count
		mean := ds.Latency.Sum / float64(ds.Latency.Count)
		meanLo, meanHi = min(meanLo, mean), max(meanHi, mean)
	}

	agg := c.Stats()
	if agg.Requests != sum.Requests || agg.Lookups != sum.Lookups || agg.Predicts != sum.Predicts {
		t.Errorf("request counters: agg {%d %d %d}, hand-summed {%d %d %d}",
			agg.Requests, agg.Lookups, agg.Predicts, sum.Requests, sum.Lookups, sum.Predicts)
	}
	if agg.Batches != sum.Batches || agg.Exchanges != sum.Exchanges || agg.Coalesced != sum.Coalesced {
		t.Errorf("batch counters: agg {%d %d %d}, hand-summed {%d %d %d}",
			agg.Batches, agg.Exchanges, agg.Coalesced, sum.Batches, sum.Exchanges, sum.Coalesced)
	}
	if agg.LocalRows != sum.LocalRows || agg.RemoteRows != sum.RemoteRows {
		t.Errorf("row counters: agg {%d %d}, hand-summed {%d %d}",
			agg.LocalRows, agg.RemoteRows, sum.LocalRows, sum.RemoteRows)
	}
	if agg.Cache != sum.Cache {
		t.Errorf("cache counters: agg %+v, hand-summed %+v", agg.Cache, sum.Cache)
	}
	if agg.Latency.Count != sum.Latency.Count {
		t.Errorf("merged latency count = %d, hand-summed %d", agg.Latency.Count, sum.Latency.Count)
	}
	if agg.QueueWait.Count != sum.QueueWait.Count {
		t.Errorf("merged queue-wait count = %d, hand-summed %d", agg.QueueWait.Count, sum.QueueWait.Count)
	}
	if agg.Requests == 0 || agg.Latency.Count == 0 {
		t.Fatal("degenerate test: no traffic recorded")
	}
	// Merging histograms, not summaries: the merged latency sum is the
	// per-driver sums added in driver order — the order Stats merges in, so
	// the float64 is exact — and the pooled mean lies within the per-driver
	// means. (A merged quantile need not lie within the per-driver ones: each
	// estimate is a bucket's lower bound clamped to its own histogram's
	// minimum, so the merged p50 can fall below every per-driver p50.)
	if agg.Latency.Sum != sum.Latency.Sum {
		t.Errorf("merged latency sum %v, per-driver sums add to %v", agg.Latency.Sum, sum.Latency.Sum)
	}
	if mean := agg.Latency.Sum / float64(agg.Latency.Count); mean < meanLo || mean > meanHi {
		t.Errorf("pooled mean latency %v outside per-driver means [%v, %v]", mean, meanLo, meanHi)
	}
}

// TestMultiDriverReloadConsistency is the satellite-2 regression: after
// Reload returns, EVERY ingress — each with its own warmed LRU, plus the
// shared hot set — serves the new checkpoint. No stale row on any driver,
// and concurrent traffic through the reload never blends checkpoints.
func TestMultiDriverReloadConsistency(t *testing.T) {
	const drivers = 4
	mA := nn.NewModel(34, testVocab, testDim, testHid)
	mB := nn.NewModel(35, testVocab, testDim, testHid)
	refA, refB := reference{mA}, reference{mB}

	c, err := New(ckptOf(mA, 1), Config{
		Ranks:       4,
		Drivers:     drivers,
		Partition:   PartConsistent,
		CacheRows:   32,
		HotRows:     32,
		HotPromote:  1, // promote on first sight: maximal staleness surface
		MaxBatch:    8,
		BatchWindow: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ids := []int64{1, 2, 3, 9, 27, 40, 63}
	wantA, wantB := refA.lookup(ids), refB.lookup(ids)

	// Warm every driver's LRU and the shared hot set with ckptA rows.
	for d := 0; d < drivers; d++ {
		for i := 0; i < 3; i++ {
			got, err := c.RouterAt(d).Lookup(context.Background(), ids)
			if err != nil {
				t.Fatal(err)
			}
			if !rowsEqual(got, wantA) {
				t.Fatalf("warmup via driver %d not ckptA", d)
			}
		}
	}
	if c.Stats().Hot.Resident == 0 {
		t.Fatal("warmup promoted nothing — the stale-replica surface is empty")
	}

	// Concurrent traffic on every ingress across the reload: responses must
	// be entirely old or entirely new, never a blend.
	stop := make(chan struct{})
	errs := make(chan error, 4*drivers)
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := c.RouterAt(d).Lookup(context.Background(), ids)
				if err != nil {
					errs <- fmt.Errorf("driver %d: %w", d, err)
					return
				}
				if !rowsEqual(got, wantA) && !rowsEqual(got, wantB) {
					errs <- fmt.Errorf("driver %d blended checkpoints mid-reload", d)
					return
				}
			}
		}(d)
	}
	time.Sleep(2 * time.Millisecond)
	if err := c.Reload(ckptOf(mB, 2)); err != nil {
		t.Fatalf("reload: %v", err)
	}

	// After Reload returns: every ingress, including its warmed caches and
	// the hot set, must serve only ckptB.
	for d := 0; d < drivers; d++ {
		for i := 0; i < 3; i++ { // repeats re-check via re-warmed cache/hot paths
			got, err := c.RouterAt(d).Lookup(context.Background(), ids)
			if err != nil {
				t.Fatal(err)
			}
			if !rowsEqual(got, wantB) {
				t.Fatalf("driver %d served a stale (ckptA) row after reload", d)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := c.Stats(); st.Hot.Invalidations != 1 {
		t.Errorf("hot invalidations = %d, want 1", st.Hot.Invalidations)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cluster error: %v", err)
	}
}

// TestMultiDriverUnderChaos extends the chaos bit-identity suite to a driver
// set: with two concurrent ingresses over the maskable plan (delays,
// duplicates, reorders, transient failures), every response on every driver
// stays bit-identical and a reload under fire leaves no stale row anywhere.
func TestMultiDriverUnderChaos(t *testing.T) {
	mA := nn.NewModel(36, testVocab, testDim, testHid)
	mB := nn.NewModel(37, testVocab, testDim, testHid)
	refA, refB := reference{mA}, reference{mB}

	for _, seed := range []int64{1, 2} {
		for _, part := range []string{PartRowHash, PartConsistent} {
			plan := comm.MaskableChaosPlan(seed)
			c, err := New(ckptOf(mA, 1), Config{
				Ranks:       4,
				Drivers:     2,
				Partition:   part,
				CacheRows:   8,
				HotRows:     8,
				HotPromote:  2,
				MaxBatch:    4,
				BatchWindow: 200 * time.Microsecond,
				Chaos:       &plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			sweep := func(ref reference, tag string) {
				for i, ids := range requestSet() {
					r := c.RouterAt(i % 2)
					got, err := r.Lookup(context.Background(), ids)
					if err != nil {
						t.Fatalf("seed %d %s %s: driver %d lookup %v: %v", seed, part, tag, i%2, ids, err)
					}
					if !rowsEqual(got, ref.lookup(ids)) {
						t.Fatalf("seed %d %s %s: driver %d lookup %v diverged", seed, part, tag, i%2, ids)
					}
				}
			}
			sweep(refA, "ckptA")
			if err := c.Reload(ckptOf(mB, 2)); err != nil {
				t.Fatalf("seed %d %s: reload under chaos: %v", seed, part, err)
			}
			sweep(refB, "ckptB")
			if err := c.Err(); err != nil {
				t.Fatalf("seed %d %s: cluster error: %v", seed, part, err)
			}
			c.Close()
		}
	}
}

// TestDriverCrashIsolated is the satellite-3 crash check: killing one driver
// rank surfaces as typed comm.ErrPeerDown on that driver's in-flight
// requests — every one is answered, none hang — while the surviving driver
// keeps serving everything its own shard can satisfy, and Close still tears
// the cluster down cleanly.
func TestDriverCrashIsolated(t *testing.T) {
	const ranks = 2
	m := nn.NewModel(38, testVocab, testDim, testHid)
	ref := reference{m}

	// Rank 1 (driver 1) dies on its first send. Nothing sends at boot, so
	// the crash fires exactly when driver 1 first conscripts an exchange.
	plan := comm.FaultPlan{Seed: 1, Rules: []comm.FaultRule{
		{Kind: comm.FaultCrash, Rate: 1, From: 1, To: comm.AnyRank},
	}}
	c, err := New(ckptOf(m, 1), Config{
		Ranks:       ranks,
		Drivers:     2,
		Partition:   PartRowHash,
		MaxBatch:    8,
		BatchWindow: time.Millisecond,
		Chaos:       &plan,
		RecvTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	var mine, theirs []int64 // rank-0-owned vs rank-1-owned
	for id := int64(0); id < testVocab; id++ {
		if rowOwner(PartRowHash, id, ranks) == 0 {
			mine = append(mine, id)
		} else {
			theirs = append(theirs, id)
		}
	}

	// Several concurrent in-flight requests on driver 1, all needing rank-0
	// rows: the ctl broadcast is driver 1's first send, so it crashes, and
	// every request must come back with the typed error — promptly.
	const inflight = 4
	got := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			_, err := c.RouterAt(1).Lookup(context.Background(), mine[:3])
			got <- err
		}()
	}
	for i := 0; i < inflight; i++ {
		select {
		case err := <-got:
			if !errors.Is(err, comm.ErrPeerDown) {
				t.Errorf("crashed-driver request error = %v, want comm.ErrPeerDown", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("request on crashed driver hung instead of failing")
		}
	}

	// The surviving driver's own rows still serve — the crash did not wedge
	// the other ingress.
	res, err := c.RouterAt(0).Lookup(context.Background(), mine[:4])
	if err != nil {
		t.Fatalf("surviving driver failed on its own rows: %v", err)
	}
	if !rowsEqual(res, ref.lookup(mine[:4])) {
		t.Fatal("surviving driver served wrong rows after peer crash")
	}

	// A remote fetch from the survivor needs the dead rank and must fail
	// typed too, promptly: the crash, not a receive deadline, ends it.
	start := time.Now()
	if _, err := c.RouterAt(0).Lookup(context.Background(), theirs[:1]); !errors.Is(err, comm.ErrPeerDown) {
		t.Fatalf("survivor fetch from a crashed rank: err = %v, want comm.ErrPeerDown", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("survivor fetch took %v to fail", d)
	}

	done := make(chan struct{})
	go func() { c.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close wedged after driver crash")
	}
}

// TestHotSetServesWithoutFabric is the replication fast-path proof: once the
// hot rows are promoted, a hot-row-only workload — on EVERY driver, cache
// disabled so only the replicas can answer — adds nothing to Packed and runs
// no exchanges. Replicated rows serve without touching the fabric.
func TestHotSetServesWithoutFabric(t *testing.T) {
	const drivers = 2
	m := nn.NewModel(39, testVocab, testDim, testHid)
	ref := reference{m}

	c, err := New(ckptOf(m, 1), Config{
		Ranks:       4,
		Drivers:     drivers,
		Partition:   PartConsistent,
		CacheRows:   0, // LRUs off: replicas are the only local copies
		HotRows:     16,
		HotPromote:  1,
		MaxBatch:    8,
		BatchWindow: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	hot := []int64{3, 7, 11, 42}
	// Warm once through driver 0: these fetches may exchange and pack.
	if _, err := c.RouterAt(0).Lookup(context.Background(), hot); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hot.Resident != int64(len(hot)) {
		t.Fatalf("hot residents = %d after warmup, want %d", st.Hot.Resident, len(hot))
	}
	packedBefore, exchangesBefore := st.Packed, st.Exchanges

	// Hot-only load on both drivers: zero new packing, zero new exchanges.
	for round := 0; round < 10; round++ {
		for d := 0; d < drivers; d++ {
			got, err := c.RouterAt(d).Lookup(context.Background(), hot)
			if err != nil {
				t.Fatal(err)
			}
			if !rowsEqual(got, ref.lookup(hot)) {
				t.Fatalf("driver %d hot-set rows not bit-identical", d)
			}
		}
	}
	st = c.Stats()
	if st.Packed != packedBefore {
		t.Errorf("hot-only load packed %d rows over the fabric, want 0", st.Packed-packedBefore)
	}
	if st.Exchanges != exchangesBefore {
		t.Errorf("hot-only load ran %d exchanges, want 0", st.Exchanges-exchangesBefore)
	}
	if st.Hot.Hits == 0 {
		t.Error("hot-only load recorded no replica hits")
	}
	if hr := st.Hot.HitRate(); hr < 0.5 {
		t.Errorf("hot hit rate %.2f, want >= 0.5 on a hot-only workload", hr)
	}
}

// TestMultiDriverTCP boots the driver set over the real TCP fabric — the
// configuration the scale benchmark measures — and checks bit-identity and
// the multi-driver load generator's per-driver report.
func TestMultiDriverTCP(t *testing.T) {
	m := nn.NewModel(40, testVocab, testDim, testHid)
	ref := reference{m}
	c, err := New(ckptOf(m, 1), Config{
		Ranks:       2,
		Drivers:     2,
		Partition:   PartConsistent,
		CacheRows:   16,
		HotRows:     16,
		MaxBatch:    8,
		BatchWindow: 200 * time.Microsecond,
		TCP:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i, ids := range requestSet()[:12] {
		got, err := c.RouterAt(i%2).Lookup(context.Background(), ids)
		if err != nil {
			t.Fatalf("tcp lookup %v: %v", ids, err)
		}
		if !rowsEqual(got, ref.lookup(ids)) {
			t.Fatalf("tcp lookup %v diverged", ids)
		}
	}

	rep := RunLoad(c, LoadConfig{Clients: 4, Requests: 25, IDsPerRequest: 3, Seed: 99})
	if rep.Requests != 100 || rep.Errors != 0 {
		t.Fatalf("load report %+v", rep)
	}
	if len(rep.PerDriver) != 2 {
		t.Fatalf("per-driver entries = %d, want 2", len(rep.PerDriver))
	}
	var sum int64
	for _, dl := range rep.PerDriver {
		if dl.Requests != 50 {
			t.Errorf("driver %d requests = %d, want 50", dl.Driver, dl.Requests)
		}
		sum += dl.Latency.Count
	}
	if sum != rep.Latency.Count {
		t.Errorf("per-driver latency counts sum to %d, merged report has %d", sum, rep.Latency.Count)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cluster error: %v", err)
	}
}

// TestChaosRejectsTCP pins the config guard: fault injection wraps the
// in-process world, so combining it with the TCP fabric must be refused.
func TestChaosRejectsTCP(t *testing.T) {
	m := nn.NewModel(41, testVocab, testDim, testHid)
	plan := comm.MaskableChaosPlan(1)
	if _, err := New(ckptOf(m, 1), Config{Ranks: 2, TCP: true, Chaos: &plan}); err == nil {
		t.Fatal("chaos over TCP accepted")
	}
}
