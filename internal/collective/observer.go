package collective

import "time"

// multiObserver fans every Observer callback out to several observers, so a
// Communicator can feed the metrics OpRecorder and a trace Recorder (or any
// other consumer) from the single WithObserver hook. Fault events forward
// only to the members that implement FaultObserver.
type multiObserver struct {
	obs    []Observer
	faults []FaultObserver
}

// MultiObserver combines observers into one. Nil entries are dropped; with
// zero or one live observer the trivial value is returned, so the fast path
// (one observer, no fan-out indirection) is preserved.
func MultiObserver(os ...Observer) Observer {
	m := &multiObserver{}
	for _, o := range os {
		if o == nil {
			continue
		}
		m.obs = append(m.obs, o)
		if f, ok := o.(FaultObserver); ok {
			m.faults = append(m.faults, f)
		}
	}
	switch len(m.obs) {
	case 0:
		return nil
	case 1:
		return m.obs[0]
	}
	return m
}

// Sent implements Observer.
func (m *multiObserver) Sent(op string, payload any, blocked time.Duration) {
	for _, o := range m.obs {
		o.Sent(op, payload, blocked)
	}
}

// Received implements Observer.
func (m *multiObserver) Received(op string, payload any, blocked time.Duration) {
	for _, o := range m.obs {
		o.Received(op, payload, blocked)
	}
}

// Fault implements FaultObserver, forwarding to the members that count
// faults.
func (m *multiObserver) Fault(op string, kind string, masked bool) {
	for _, f := range m.faults {
		f.Fault(op, kind, masked)
	}
}

// Compile-time checks.
var (
	_ Observer      = (*multiObserver)(nil)
	_ FaultObserver = (*multiObserver)(nil)
)
