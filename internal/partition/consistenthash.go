package partition

import (
	"sort"
	"sync"
)

// ConsistentHash places embedding rows on a consistent-hash ring: every
// shard projects Vnodes points onto a 64-bit ring, and a token is owned by
// the shard whose point follows the token's hash clockwise. Like RowHash it
// is row-wise (whole vectors, one owner per token), but ownership is stable
// under resizing: growing the ring from n to n+1 shards moves only the
// ~1/(n+1) of tokens that land in the new shard's arcs, where modulo hashing
// reshuffles almost everything. That stability is what lets a serving plane
// add or drop drivers without invalidating nearly every replica and cache
// entry — the placement analogue of Parallax's observation that hot sparse
// parameters deserve different treatment than the cold tail.
type ConsistentHash struct {
	// Vnodes is the number of ring points per shard (default 64). More
	// points smooth the arc lengths — expected per-shard load imbalance
	// falls roughly with 1/sqrt(Vnodes) — at the cost of a larger ring.
	Vnodes int
}

// DefaultVnodes is the ring density used when Vnodes is unset.
const DefaultVnodes = 64

// Name implements Scheme.
func (ConsistentHash) Name() string { return "consistent-hash" }

func (c ConsistentHash) vnodes() int {
	if c.Vnodes <= 0 {
		return DefaultVnodes
	}
	return c.Vnodes
}

// ringPoint is one shard's projection onto the ring.
type ringPoint struct {
	hash  uint64
	shard int
}

// ring is the sorted point set for one (shards, vnodes) pair. Rings are
// pure functions of that pair, so they are built once and cached; lookups
// after the first cost one binary search and no allocation.
type ring struct {
	points []ringPoint
}

// ringKey identifies a cached ring.
type ringKey struct {
	shards, vnodes int
}

// rings caches built rings. sync.Map fits the access pattern exactly: one
// store per (shards, vnodes) pair ever, then read-only lookups from many
// goroutines (every serving driver routes through Owner).
var rings sync.Map

func ringFor(shards, vnodes int) *ring {
	key := ringKey{shards, vnodes}
	if r, ok := rings.Load(key); ok {
		return r.(*ring)
	}
	pts := make([]ringPoint, 0, shards*vnodes)
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			// Seed each point from (shard, vnode) so the ring is a pure
			// function of the pair — no global state, no ordering effects.
			h := splitmix64(uint64(s)<<32 | uint64(v))
			pts = append(pts, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		// Ties (vanishingly rare) break by shard so the ring is total.
		return pts[i].shard < pts[j].shard
	})
	r := &ring{points: pts}
	actual, _ := rings.LoadOrStore(key, r)
	return actual.(*ring)
}

// owner returns the shard of the first ring point at or clockwise of h.
func (r *ring) owner(h uint64) int {
	pts := r.points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= h })
	if i == len(pts) {
		i = 0 // wrap past the top of the ring
	}
	return pts[i].shard
}

// splitmix64 is the finalizer-quality mixer the chaos transport also derives
// its per-stream generators from (reimplemented here: partition depends on
// nothing). It is bijective on uint64, so distinct tokens never collapse
// before the ring search.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Owner returns the shard in [0, n) holding token tok's full embedding row.
// Negative ids (padding sentinels) hash like any other value — the uint64
// conversion is a bijection, so no clamping or sign normalization is needed.
func (c ConsistentHash) Owner(tok int64, n int) int {
	if n <= 1 {
		return 0
	}
	return ringFor(n, c.vnodes()).owner(splitmix64(uint64(tok)))
}

// ShardLoads implements Scheme.
func (c ConsistentHash) ShardLoads(tokens []int64, n int) []float64 {
	loads := make([]float64, n)
	if n <= 0 {
		return loads
	}
	r := ringFor(n, c.vnodes())
	for _, tok := range tokens {
		loads[r.owner(splitmix64(uint64(tok)))]++
	}
	return loads
}
