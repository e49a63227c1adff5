package collective

// streamCount returns how many (peer, tag) send and receive streams c holds.
func (c *Communicator) streamCount() int {
	c.streamMu.Lock()
	defer c.streamMu.Unlock()
	return len(c.sends) + len(c.recvs)
}
