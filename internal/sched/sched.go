// Package sched holds the scheduling vocabulary of §4.2 that outlives any
// one executor: the priority bands of Block-level Horizontal Scheduling,
// which the performance simulator orders its communication ops by, and
// Algorithm 1 (Vertical Sparse Scheduling), which splits a coalesced
// embedding gradient into prior and delayed parts using the prefetched next
// batch. Real execution schedules by lanes and joins in the strategies
// package, not by a queue.
package sched

import "embrace/internal/tensor"

// ---------------------------------------------------------------------------
// Block-level Horizontal Scheduling (§4.2.1)
// ---------------------------------------------------------------------------

// Priority bands. Within a band, block priorities follow the forward
// dependency order so a block's gradients arrive just before its FP needs
// them. The prior embedding rows (needed by the very next FP) outrank
// everything; delayed rows run dead last.
const (
	// PriorityEmbeddingPrior is the band for Algorithm 1 prior gradients
	// and the embedding-data AlltoAll that next FP blocks on.
	PriorityEmbeddingPrior = 0
	// PriorityDenseBase is the base band for dense blocks; block i in
	// forward order gets PriorityDenseBase + i.
	PriorityDenseBase = 100
	// PriorityEmbeddingDelayed is the band for delayed embedding rows,
	// which may finish any time before the next iteration's update.
	PriorityEmbeddingDelayed = 1 << 20
)

// ---------------------------------------------------------------------------
// Vertical Sparse Scheduling (Algorithm 1)
// ---------------------------------------------------------------------------

// VerticalSplit implements Algorithm 1. Given the raw (possibly duplicate-
// laden) sparse gradient G, the unique token ids of this worker's current
// batch D_u, and the token ids of the prefetched next batch D_next, it
// returns the coalesced prior gradient (rows also needed by the next
// iteration's FP) and the coalesced delayed gradient (the rest).
//
// Invariants (tested): prior and delayed are disjoint, and together they
// contain exactly the coalesced form of G.
func VerticalSplit(g *tensor.Sparse, curUnique, nextUnique []int64) (prior, delayed *tensor.Sparse) {
	coalesced := g.Coalesce()                         // line 2
	iPrior := tensor.Intersect(curUnique, nextUnique) // line 4: sorted
	prior, delayed = coalesced.Partition(iPrior)      // lines 6-7
	return prior, delayed
}

// SplitSizes reports the payload sizes Algorithm 1 produces, the quantities
// behind Table 3's coalesced and prioritized columns.
type SplitSizes struct {
	OriginalBytes  int
	CoalescedBytes int
	PriorBytes     int
	DelayedBytes   int
}

// MeasureSplit runs VerticalSplit and reports the resulting sizes.
func MeasureSplit(g *tensor.Sparse, curUnique, nextUnique []int64) SplitSizes {
	prior, delayed := VerticalSplit(g, curUnique, nextUnique)
	return SplitSizes{
		OriginalBytes:  g.SizeBytes(),
		CoalescedBytes: prior.SizeBytes() + delayed.SizeBytes(),
		PriorBytes:     prior.SizeBytes(),
		DelayedBytes:   delayed.SizeBytes(),
	}
}
