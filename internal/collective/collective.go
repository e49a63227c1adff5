// Package collective implements the collective communication primitives the
// paper's hybrid architecture is built from: ring AllReduce for dense
// gradients, AllGather for sparse baselines, and AlltoAll for the EmbRace
// embedding exchange (§2.2, §4.1).
//
// The API is the stateful Communicator, which owns tag allocation (one
// collision-free tag per logical op name), chunked pipelining of dense ring
// transfers, and pooled scratch buffers. Every collective is issued as
// (op, step): all ranks of a comm.Transport world issue the same logical
// operations with the same names and steps in the same order, and the call
// returns on each rank once that rank's part is complete. The step travels
// in each frame and is checked on receipt. Concurrent collectives on one
// Communicator must use distinct op names. Generic exchanges (AllGatherVia,
// AllToAllVia, GatherVia) are package functions taking the Communicator
// first, because Go methods cannot be generic. The rawtag analyzer
// (cmd/embracevet) keeps hand-numbered tags off the raw transport.
package collective

// chunkBounds returns the [lo, hi) element range of chunk i when n elements
// are split into `parts` nearly equal chunks (the ring AllReduce layout).
func chunkBounds(n, parts, i int) (lo, hi int) {
	base := n / parts
	rem := n % parts
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}
