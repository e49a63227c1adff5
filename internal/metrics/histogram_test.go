package metrics

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"
)

// exactQuantile computes the quantile the histogram approximates: the value
// at 1-based rank ceil(q*n) of the sorted sample.
func exactQuantile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	vals := []float64{0.001, 0.002, 0.003, 0.010, 0.100}
	var sum float64
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	if h.Count() != int64(len(vals)) {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-sum) > 1e-12 {
		t.Fatalf("sum = %g want %g", h.Sum(), sum)
	}
	if got := h.Quantile(0); got != 0.001 {
		t.Fatalf("min = %g", got)
	}
	if got := h.Quantile(1); got != 0.100 {
		t.Fatalf("max = %g", got)
	}
}

func TestHistogramQuantileError(t *testing.T) {
	// Bucket-resolution quantiles must stay within one growth factor of the
	// exact sample quantile (below it, since the estimate is a bucket lower
	// bound clamped to the observed range).
	h := NewHistogram()
	var vals []float64
	v := 1e-6
	for i := 0; i < 500; i++ {
		h.Observe(v)
		vals = append(vals, v)
		v *= 1.031 // spread across many buckets up to ~4s
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		exact := exactQuantile(vals, q)
		got := h.Quantile(q)
		if got > exact || got < exact/(histGrowth*histGrowth) {
			t.Fatalf("q=%g: got %g, exact %g (allowed [%g, %g])",
				q, got, exact, exact/(histGrowth*histGrowth), exact)
		}
	}
}

func TestHistogramMergeExact(t *testing.T) {
	a, b, ref := NewHistogram(), NewHistogram(), NewHistogram()
	for i := 0; i < 100; i++ {
		v := float64(i+1) * 1e-4
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		ref.Observe(v)
	}
	m := MergeHistograms(a, b)
	if m.Count() != ref.Count() || math.Abs(m.Sum()-ref.Sum()) > 1e-12 {
		t.Fatalf("merged count/sum %d/%g want %d/%g", m.Count(), m.Sum(), ref.Count(), ref.Sum())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
		if m.Quantile(q) != ref.Quantile(q) {
			t.Fatalf("q=%g: merged %g != pooled %g", q, m.Quantile(q), ref.Quantile(q))
		}
	}
	// Merging must not mutate the source.
	if b.Count() != 50 {
		t.Fatalf("source histogram mutated: count %d", b.Count())
	}
	// Nil handling.
	if MergeHistograms(nil, nil) != nil {
		t.Fatal("nil+nil must stay nil")
	}
	if got := MergeHistograms(nil, a); got.Count() != a.Count() {
		t.Fatal("nil+a must clone a")
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	h.Merge(NewHistogram())
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Clone() != nil {
		t.Fatal("nil histogram must be inert")
	}
	if s := h.Summary(); s.Count != 0 {
		t.Fatal("nil summary must be zero")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1e-3)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestSummary(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * time.Millisecond.Seconds())
	}
	s := h.Summary()
	if s.Count != 100 || s.Min != 0.001 || s.Max != 0.1 {
		t.Fatalf("summary %+v", s)
	}
	if s.P50 <= 0 || s.P50 > 0.05 || s.P99 <= s.P50 {
		t.Fatalf("quantiles out of order: %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty string render")
	}
}

func TestOpRecorderBlockedPercentiles(t *testing.T) {
	r := NewOpRecorder()
	for i := 1; i <= 50; i++ {
		r.Received("op", nil, time.Duration(i)*time.Millisecond)
		r.Sent("op", nil, time.Millisecond)
	}
	per := r.PerOp()
	s := per["op"]
	if s.RecvBlocked == nil || s.RecvBlocked.Count() != 50 {
		t.Fatalf("recv histogram missing: %+v", s.RecvBlocked)
	}
	if s.SendBlocked.Count() != 50 {
		t.Fatal("send histogram missing")
	}
	p99 := s.RecvBlocked.Quantile(0.99)
	p50 := s.RecvBlocked.Quantile(0.50)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("p50=%g p99=%g", p50, p99)
	}
	// The snapshot is detached: further recording must not change it.
	before := s.RecvBlocked.Count()
	r.Received("op", nil, time.Millisecond)
	if s.RecvBlocked.Count() != before {
		t.Fatal("PerOp snapshot aliases live histogram")
	}
	// Add merges distributions across recorders (the cross-rank fold).
	r2 := NewOpRecorder()
	r2.Received("op", nil, 100*time.Millisecond)
	sum := per["op"].Add(r2.PerOp()["op"])
	if sum.RecvBlocked.Count() != 51 {
		t.Fatalf("merged recv count %d", sum.RecvBlocked.Count())
	}
	if sum.RecvBlocked.Quantile(1) < 0.1 {
		t.Fatalf("merged max %g lost the 100ms tail", sum.RecvBlocked.Quantile(1))
	}
}

func TestCacheCounters(t *testing.T) {
	var c CacheCounters
	c.Hit()
	c.Hit()
	c.Miss()
	c.Evict()
	s := c.Snapshot()
	if s.Hits != 2 || s.Misses != 1 || s.Evictions != 1 {
		t.Fatalf("snapshot %+v", s)
	}
	if got := s.HitRate(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("hit rate %g", got)
	}
	if (CacheStats{}).HitRate() != 0 {
		t.Fatal("empty hit rate must be 0")
	}
}
