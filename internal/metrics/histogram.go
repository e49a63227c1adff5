package metrics

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram accumulates a distribution of non-negative durations (seconds)
// in logarithmically spaced buckets, the standard trick for latency
// percentiles: constant memory, O(1) observation, and quantiles with a
// bounded relative error (one bucket's growth factor) instead of the
// unbounded memory an exact-sample reservoir needs. Two histograms with the
// same (implicit, package-wide) bucket layout merge exactly by summing
// bucket counts, which is what lets per-rank distributions fold into a
// cluster-wide one without losing percentile fidelity.
//
// The zero value is NOT ready to use; call NewHistogram. All methods are
// safe for concurrent use and safe on a nil receiver (observations are
// dropped, queries return zeros), so callers need no "is recording on?"
// branches.
type Histogram struct {
	mu     sync.Mutex
	counts [histBuckets]int64
	count  int64
	sum    float64
	min    float64
	max    float64
}

// Bucket layout: bucket i spans [histBase*histGrowth^i, histBase*histGrowth^(i+1)).
// Observations below histBase land in bucket 0, above the top in the last
// bucket. With base 100ns and 10% growth, 224 buckets reach past 200 s —
// every latency a serving or training path can plausibly produce — with a
// worst-case quantile error of one growth step.
const (
	histBase    = 100e-9
	histGrowth  = 1.1
	histBuckets = 224
)

// logGrowth is precomputed for bucketOf.
var logGrowth = math.Log(histGrowth)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.Inf(1), max: math.Inf(-1)}
}

// bucketOf maps a value in seconds to its bucket index.
func bucketOf(v float64) int {
	if v <= histBase {
		return 0
	}
	b := int(math.Log(v/histBase) / logGrowth)
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketLow returns the lower bound of bucket b in seconds.
func bucketLow(b int) float64 {
	if b <= 0 {
		return 0
	}
	return histBase * math.Pow(histGrowth, float64(b))
}

// Observe records one value in seconds. Negative values clamp to zero.
func (h *Histogram) Observe(seconds float64) {
	if h == nil {
		return
	}
	if seconds < 0 || math.IsNaN(seconds) {
		seconds = 0
	}
	b := bucketOf(seconds)
	h.mu.Lock()
	h.counts[b]++
	h.count++
	h.sum += seconds
	if seconds < h.min {
		h.min = seconds
	}
	if seconds > h.max {
		h.max = seconds
	}
	h.mu.Unlock()
}

// ObserveDuration records one duration.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values in seconds.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile returns an estimate of the q-th quantile (q in [0,1]) in seconds.
// The estimate is the lower bound of the bucket holding the q-th observation,
// clamped to the exact observed min/max, so the relative error is bounded by
// the bucket growth factor. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// Rank of the target observation, 1-based.
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b := 0; b < histBuckets; b++ {
		cum += h.counts[b]
		if cum >= rank {
			v := bucketLow(b)
			// Clamp into the observed range: buckets are coarser than the
			// data, and the true quantile can never leave [min, max].
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge folds o's observations into h. Exact: both histograms share the
// package-wide bucket layout, so merged quantiles equal those of a histogram
// that observed the union. A nil o is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	// Snapshot o first so the two locks are never held together.
	snap := o.Clone()
	h.mu.Lock()
	for b, c := range snap.counts {
		h.counts[b] += c
	}
	h.count += snap.count
	h.sum += snap.sum
	if snap.count > 0 {
		if snap.min < h.min {
			h.min = snap.min
		}
		if snap.max > h.max {
			h.max = snap.max
		}
	}
	h.mu.Unlock()
}

// Clone returns an independent copy. A nil receiver yields nil.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	c := &Histogram{count: h.count, sum: h.sum, min: h.min, max: h.max}
	c.counts = h.counts
	return c
}

// MergeHistograms returns a new histogram holding a's and b's observations.
// Either may be nil; two nils yield nil, so zero-cost paths stay zero-cost.
func MergeHistograms(a, b *Histogram) *Histogram {
	if a == nil {
		return b.Clone()
	}
	out := a.Clone()
	out.Merge(b)
	return out
}

// Summary is a point-in-time digest of a histogram: the fields dashboards
// and benchmark tables want, detached from the live (locked) histogram.
type Summary struct {
	// Count is the number of observations; Sum their total in seconds.
	Count int64
	Sum   float64
	// Min and Max are the exact observed extremes in seconds.
	Min, Max float64
	// P50, P95 and P99 are bucket-resolution quantile estimates in seconds.
	P50, P95, P99 float64
}

// Summary digests the histogram. Zero-valued with no observations.
func (h *Histogram) Summary() Summary {
	if h == nil || h.Count() == 0 {
		return Summary{}
	}
	return Summary{
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Quantile(0),
		Max:   h.Quantile(1),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// String renders the digest compactly for logs.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d p50=%s p95=%s p99=%s max=%s",
		s.Count, secs(s.P50), secs(s.P95), secs(s.P99), secs(s.Max))
}

// secs formats a second count as a duration.
func secs(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }

// CacheCounters tracks a cache's hit/miss/eviction counts. Methods are
// atomic, so a cache on a hot path pays one atomic add per event; Snapshot
// is consistent enough for reporting (the three loads are not mutually
// atomic, which reporting never needs).
type CacheCounters struct {
	hits, misses, evictions atomic.Int64
}

// Hit records a cache hit.
func (c *CacheCounters) Hit() { c.hits.Add(1) }

// Miss records a cache miss.
func (c *CacheCounters) Miss() { c.misses.Add(1) }

// Evict records an eviction.
func (c *CacheCounters) Evict() { c.evictions.Add(1) }

// Snapshot returns the current counts.
func (c *CacheCounters) Snapshot() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// CacheStats is a point-in-time copy of cache counters.
type CacheStats struct {
	Hits, Misses, Evictions int64
}

// HitRate returns hits over lookups, or 0 with no lookups.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
