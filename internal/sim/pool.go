package sim

import "sync"

// MachinePool recycles fully built machines across runs. A machine's
// construction cost (cache way arrays, dense line tables, engines, thread
// scratch) dominates short cells, so harness sweeps and service workers
// Get/Put machines instead of calling NewMachine per cell.
//
// Get resets a pooled machine under the requested configuration when one
// is available and structurally compatible (same cores, hierarchy and
// geometry — Reset's contract), and falls back to NewMachine otherwise.
// Because Reset rewinds a machine to the bit-identical fresh state, runs
// through the pool produce exactly the results of runs on new machines.
type MachinePool struct {
	pool sync.Pool
}

// Get returns a machine configured per cfg: a recycled one when possible,
// a fresh one otherwise.
func (p *MachinePool) Get(cfg Config) (*Machine, error) {
	m, _, err := p.GetTracked(cfg)
	return m, err
}

// GetTracked is Get plus how the machine was acquired: reused is true
// when a pooled machine was reset (the cheap path), false when one had
// to be built from scratch. The observability layer uses it to
// attribute acquisition time to "machine.reset" vs "machine.build".
func (p *MachinePool) GetTracked(cfg Config) (m *Machine, reused bool, err error) {
	if v := p.pool.Get(); v != nil {
		m := v.(*Machine)
		if err := m.Reset(cfg); err == nil {
			return m, true, nil
		}
		// Structurally incompatible: drop it; the GC reclaims the arenas
		// and the caller gets a clean build.
	}
	m, err = NewMachine(cfg)
	return m, false, err
}

// Put offers a machine back for reuse, whether its run finished or failed.
func (p *MachinePool) Put(m *Machine) {
	if m != nil {
		p.pool.Put(m)
	}
}

// DefaultPool is the process-wide machine pool used by the top-level run
// helpers.
var DefaultPool MachinePool
