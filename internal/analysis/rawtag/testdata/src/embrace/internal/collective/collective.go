// Package collective is a hermetic stub of the repo's collective package:
// the Communicator (op, step) API that replaced hand-numbered tags.
package collective

import "embrace/internal/comm"

// Communicator is the (op, step) API.
type Communicator struct{ t comm.Transport }

// NewCommunicator wraps t.
func NewCommunicator(t comm.Transport) *Communicator { return &Communicator{t: t} }

// Tag maps op to a collision-free transport tag.
func (c *Communicator) Tag(op string) (int, error) { return 0, nil }

// AllReduce sums buf across ranks.
func (c *Communicator) AllReduce(op string, step int, buf []float32) error { return nil }

// GatherVia collects one value per rank at root.
func GatherVia[T any](c *Communicator, op string, step, root int, local T) ([]T, error) {
	return nil, nil
}

// insideOwnPackage shows the exemption: the package owning the tag machinery
// may use raw tags freely (no diagnostics expected here).
func insideOwnPackage(t comm.Transport) error {
	return t.Send(0, 7, nil)
}
