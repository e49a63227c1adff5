// Package collective is a stub of the real collective package: the rank
// accessor, a few collectives, and the point-to-point pair the analyzer
// must exempt.
package collective

// Communicator is the stub transport handle.
type Communicator struct {
	rank, size int
}

func (c *Communicator) Rank() int { return c.rank }

func (c *Communicator) Size() int { return c.size }

func (c *Communicator) AllReduce(op string, step int, buf []float32) error { return nil }

func (c *Communicator) AllReduceBlocks(op string, step int, bufs ...[]float32) error { return nil }

func (c *Communicator) ReduceScatterBlocks(op string, step int, bufs ...[]float32) error { return nil }

func (c *Communicator) AllGatherBlocks(op string, step int, bufs ...[]float32) error { return nil }

func (c *Communicator) Barrier(op string, step int) error { return nil }

func (c *Communicator) Send(op string, step, to int, payload any) error { return nil }

func (c *Communicator) Recv(op string, step, from int) (any, error) { return nil, nil }

func GatherVia[T any](c *Communicator, op string, step, root int, local T) ([]T, error) {
	return nil, nil
}
