package comm

// MailboxCount returns how many (sender, tag) mailboxes t's receive side
// holds, looking through a chaos wrapper.
func MailboxCount(t Transport) int {
	var m *mailboxSet
	switch r := t.(type) {
	case *rank:
		m = r.mail
	case *tcpRank:
		m = r.mail
	case *chaosTransport:
		return MailboxCount(r.inner)
	default:
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.boxes)
}

// ChaosStreamCount returns how many (receiver, tag) fault streams t tracks;
// zero when t is not a chaos transport.
func ChaosStreamCount(t Transport) int {
	c, ok := t.(*chaosTransport)
	if !ok {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.streams)
}
