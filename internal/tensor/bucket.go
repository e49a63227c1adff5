package tensor

// This file is the vectorized row-bucketing core of the hot-path rebuild:
// sort-free counting-sort bucketing of int64 row ids by destination rank,
// binary-search range bucketing against sorted rank boundaries, and the
// allocation-free int64 sort/search primitives the in-place Sparse variants
// build on. Everything here writes into caller-owned (or receiver-owned)
// buffers that grow to a high-water mark and are then reused, so steady-state
// calls allocate nothing — the property the `hotalloc` analyzer enforces on
// the marked functions.

import (
	"math"
	"testing"
)

// SearchInt64 returns the smallest i in [0, len(xs)] with xs[i] >= x — the
// lower-bound binary search (searchsorted-left). xs must be sorted ascending.
// It is a hand-rolled loop rather than sort.Search so hot callers pay no
// closure indirection.
//
//embrace:hotpath
func SearchInt64(xs []int64, x int64) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ContainsSorted reports whether x occurs in the ascending-sorted slice xs.
// Duplicates in xs are harmless; it is pure membership.
//
//embrace:hotpath
func ContainsSorted(xs []int64, x int64) bool {
	i := SearchInt64(xs, x)
	return i < len(xs) && xs[i] == x
}

// SortInt64 sorts xs ascending in place without allocating: median-of-three
// quicksort with an insertion-sort cutoff. Equal elements are
// indistinguishable, so the missing stability is unobservable.
//
//embrace:hotpath
func SortInt64(xs []int64) {
	for len(xs) > 12 {
		// Median-of-three pivot, placed at xs[0].
		m := len(xs) / 2
		hi := len(xs) - 1
		if xs[m] < xs[0] {
			xs[m], xs[0] = xs[0], xs[m]
		}
		if xs[hi] < xs[0] {
			xs[hi], xs[0] = xs[0], xs[hi]
		}
		if xs[hi] < xs[m] {
			xs[hi], xs[m] = xs[m], xs[hi]
		}
		pivot := xs[m]
		i, j := 0, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, loop on the larger: O(log n) stack.
		if j < len(xs)-i {
			SortInt64(xs[:j+1])
			xs = xs[i:]
		} else {
			SortInt64(xs[i:])
			xs = xs[:j+1]
		}
	}
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// UniqueSorted compacts consecutive duplicates of an ascending-sorted slice
// in place and returns the shortened prefix. Combined with SortInt64 it is
// the allocation-free form of UniqueInt64.
//
//embrace:hotpath
func UniqueSorted(xs []int64) []int64 {
	if len(xs) == 0 {
		return xs
	}
	w := 1
	for i := 1; i < len(xs); i++ {
		if xs[i] != xs[w-1] {
			xs[w] = xs[i]
			w++
		}
	}
	return xs[:w]
}

// RowBucketer groups row ids by destination rank with a stable two-pass
// counting sort, the vectorized replacement for the per-step map/append
// bucketing the strategies used to do (SNIPPETS.md Snippet 1's searchsorted
// pattern). One Bucket call yields, in receiver-owned buffers:
//
//	Counts()[d]   — how many ids go to destination d
//	Offsets()[d]  — where bucket d starts in the grouped order (exclusive
//	                prefix sums; Offsets() has ndst+1 entries, so bucket d is
//	                the half-open range [Offsets()[d], Offsets()[d+1]))
//	Perm()[k]     — the original position of the k-th id in grouped order;
//	                within a bucket, original order is preserved (stable)
//
// Callers walk Perm() bucket by bucket to pack per-destination index/value
// streams without ever building a map. The buffers grow to a high-water mark
// on first use and are reused on every later call, so steady-state bucketing
// allocates nothing. A RowBucketer is not safe for concurrent use.
type RowBucketer struct {
	counts []int
	offs   []int
	dest   []int32
	perm   []int32
}

// Counts returns the per-destination id counts of the last Bucket call.
//
// aliases: the returned slice is the bucketer's scratch — valid until the
// next Bucket call.
func (b *RowBucketer) Counts() []int { return b.counts }

// Offsets returns the exclusive prefix sums of Counts, with ndst+1 entries.
//
// aliases: the returned slice is the bucketer's scratch — valid until the
// next Bucket call.
func (b *RowBucketer) Offsets() []int { return b.offs }

// Perm returns the stable destination-grouped permutation of the last Bucket
// call: Perm()[k] is the index into the original ids of the k-th grouped id.
//
// aliases: the returned slice is the bucketer's scratch — valid until the
// next Bucket call.
func (b *RowBucketer) Perm() []int32 { return b.perm }

// Bucket groups ids by destOf(id), which must return a value in [0, ndst).
//
//embrace:hotpath
func (b *RowBucketer) Bucket(ids []int64, ndst int, destOf func(int64) int) {
	b.ensure(len(ids), ndst)
	counts := b.counts
	for i := range counts {
		counts[i] = 0
	}
	dest := b.dest
	for i, id := range ids {
		d := destOf(id)
		dest[i] = int32(d)
		counts[d]++
	}
	b.scatter(ids)
}

// BucketRanges groups ids by binary search against sorted range boundaries:
// id belongs to destination d when bounds[d] <= id < bounds[d+1], so
// len(bounds)-1 is the destination count. This is the rank-boundary
// bucketing of a contiguously row-partitioned table.
//
//embrace:hotpath
func (b *RowBucketer) BucketRanges(ids []int64, bounds []int64) {
	ndst := len(bounds) - 1
	b.ensure(len(ids), ndst)
	counts := b.counts
	for i := range counts {
		counts[i] = 0
	}
	dest := b.dest
	inner := bounds[1:ndst] // the ndst-1 interior boundaries
	for i, id := range ids {
		d := SearchInt64(inner, id+1) // upper bound: first boundary > id
		dest[i] = int32(d)
		counts[d]++
	}
	b.scatter(ids)
}

// scatter turns b.counts/b.dest into offsets and the stable permutation —
// pass two of the counting sort.
//
//embrace:hotpath
func (b *RowBucketer) scatter(ids []int64) {
	offs := b.offs
	run := 0
	for d, c := range b.counts {
		offs[d] = run
		run += c
	}
	offs[len(b.counts)] = run
	// next[d] tracks the write cursor of bucket d; reuse the perm tail as
	// cursor storage is not possible (it is the output), so walk offs twice:
	// cursors live in counts' prefix image and are rebuilt from offs below.
	perm := b.perm
	cursor := b.dest[len(ids):cap(b.dest)] // spare capacity beyond the ids
	cursor = cursor[:len(b.counts)]
	for d := range cursor {
		cursor[d] = int32(offs[d])
	}
	for i := range ids {
		d := b.dest[i]
		perm[cursor[d]] = int32(i)
		cursor[d]++
	}
}

// ensure grows the scratch buffers to hold n ids across ndst destinations.
// Growth happens only until the high-water mark is reached; it is the cold
// half of the bucketer, deliberately unmarked. In test binaries it first
// poisons the old contents with negative sentinels, so a slice read from the
// previous Bucket call indexes out of range instead of yielding stale data.
func (b *RowBucketer) ensure(n, ndst int) {
	if poisonScratch {
		fillInts(b.counts[:cap(b.counts)], math.MinInt)
		fillInts(b.offs[:cap(b.offs)], math.MinInt)
		fillInts(b.dest[:cap(b.dest)], math.MinInt32)
		fillInts(b.perm[:cap(b.perm)], math.MinInt32)
	}
	if cap(b.counts) < ndst {
		b.counts = make([]int, ndst)
	}
	b.counts = b.counts[:ndst]
	if cap(b.offs) < ndst+1 {
		b.offs = make([]int, ndst+1)
	}
	b.offs = b.offs[:ndst+1]
	// dest carries n destinations plus ndst write cursors in its tail.
	if cap(b.dest) < n+ndst {
		b.dest = make([]int32, n+ndst)
	}
	b.dest = b.dest[:n]
	if cap(b.perm) < n {
		b.perm = make([]int32, n)
	}
	b.perm = b.perm[:n]
}

// poisonScratch is true in test binaries only: reused scratch is poisoned
// before it is refilled.
var poisonScratch = testing.Testing()

func fillInts[T int | int32](xs []T, v T) {
	for i := range xs {
		xs[i] = v
	}
}
