// Package collective implements the collective communication primitives the
// paper's hybrid architecture is built from: ring AllReduce for dense
// gradients, AllGather for sparse baselines, and AlltoAll for the EmbRace
// embedding exchange (§2.2, §4.1).
//
// The API is the stateful Communicator, which owns tag allocation
// (collision-free per logical op name and step), chunked pipelining of dense
// ring transfers, and pooled scratch buffers. Every collective is addressed
// by (op, step): all ranks of a comm.Transport world issue the same logical
// operation with the same name and step, and the call returns on each rank
// once that rank's part is complete. Concurrent collectives on one
// Communicator must use distinct op names or distinct steps. Generic
// exchanges (AllGatherVia, AllToAllVia, GatherVia) are package functions
// taking the Communicator first, because Go methods cannot be generic.
//
// The pre-Communicator free functions that took hand-picked integer tags are
// gone; the rawtag analyzer (cmd/embracevet) keeps hand-numbered tags off the
// raw transport.
package collective

import (
	"embrace/internal/comm"
	"embrace/internal/tensor"
)

func init() {
	// Tensor payloads must be registered for the TCP transport's gob
	// framing; the in-process transport ignores registration.
	comm.RegisterWireType(&tensor.Dense{})
	comm.RegisterWireType(&tensor.Sparse{})
	comm.RegisterWireType([]*tensor.Dense{})
	comm.RegisterWireType([]*tensor.Sparse{})
}

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
