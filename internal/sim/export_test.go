package sim

// SchedCounts returns the scheduler counters of the machine's current run:
// dispatches that handed off to another thread, and dispatches that kept
// the yielding thread running.
func (m *Machine) SchedCounts() (handoffs, stays uint64) { return m.handoffs, m.stays }
