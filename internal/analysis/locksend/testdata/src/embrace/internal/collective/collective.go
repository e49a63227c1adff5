// Package collective is a fixture stub mirroring the blocking surface the
// analyzer matches against.
package collective

import "embrace/internal/comm"

// Communicator is the stateful collectives handle.
type Communicator struct{ t comm.Transport }

// NewCommunicator wraps a transport.
func NewCommunicator(t comm.Transport) *Communicator { return &Communicator{t: t} }

// Tag is pure bookkeeping, never blocking.
func (c *Communicator) Tag(op string) int { return 0 }

// AllReduce blocks until every rank participates.
func (c *Communicator) AllReduce(op string, step int, buf []float64) {}

// Barrier blocks until every rank participates.
func (c *Communicator) Barrier(op string, step int) {}

// AlltoAllSparse blocks until every peer's shard has arrived.
func (c *Communicator) AlltoAllSparse(op string, step int, send [][]int64, arena any) error {
	return nil
}

// Send blocks on transport delivery.
func (c *Communicator) Send(op string, step, to int, payload []byte) {}

// AllGatherVia is a blocking package-level collective.
func AllGatherVia[T any](c *Communicator, op string, step int, v T) []T { return []T{v} }
