package sim_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// workOnly runs ops Work calls on every thread whose id is below busy and
// returns at once on the others. Every thread below busy dispatches once
// per op and once on finishing, so a run makes exactly busy*ops yields.
type workOnly struct{ ops, busy int }

func (w workOnly) Name() string                { return "work-only" }
func (w workOnly) Description() string         { return "fixed count of Work ops" }
func (w workOnly) Setup(*sim.Machine)          {}
func (w workOnly) Validate(*sim.Machine) error { return nil }
func (w workOnly) Run(t *sim.Thread) {
	if t.ID() >= w.busy {
		return
	}
	for i := 0; i < w.ops; i++ {
		t.Work(10)
	}
}

// TestSchedulerCounters: the handoff and stay counts are deterministic per
// spec, Reset zeroes them, and every dispatch that resumes a thread is
// counted exactly once: the first one from Execute, one per op and one per
// finishing thread except the last.
func TestSchedulerCounters(t *testing.T) {
	counts := func(m *sim.Machine, w sim.Workload) (uint64, uint64) {
		t.Helper()
		if _, err := m.Execute(w); err != nil {
			t.Fatal(err)
		}
		return m.SchedCounts()
	}
	kmeans := func() sim.Workload {
		w, err := workloads.New("kmeans", workloads.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	m1, err := sim.NewMachine(baseCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sim.NewMachine(baseCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	h1, s1 := counts(m1, kmeans())
	if s1 == 0 || h1 == 0 {
		t.Fatalf("kmeans: %d handoffs, %d stays; want both nonzero", h1, s1)
	}
	if h2, s2 := counts(m2, kmeans()); h2 != h1 || s2 != s1 {
		t.Fatalf("same spec on two machines: %d/%d handoffs/stays, then %d/%d", h1, s1, h2, s2)
	}
	if err := m1.Reset(baseCfg(3)); err != nil {
		t.Fatal(err)
	}
	if h, s := m1.SchedCounts(); h != 0 || s != 0 {
		t.Fatalf("Reset left %d handoffs, %d stays", h, s)
	}
	if h2, s2 := counts(m1, kmeans()); h2 != h1 || s2 != s1 {
		t.Fatalf("same spec after Reset: %d/%d handoffs/stays, then %d/%d", h1, s1, h2, s2)
	}

	for _, c := range []struct{ cores, busy, ops int }{{1, 1, 50}, {4, 4, 50}, {4, 1, 50}} {
		cfg := baseCfg(1)
		cfg.Cores = c.cores
		m, err := sim.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, s := counts(m, workOnly{ops: c.ops, busy: c.busy})
		if want := uint64(1 + c.busy*c.ops + c.cores - 1); h+s != want {
			t.Errorf("%d cores, %d busy: %d handoffs + %d stays, want %d dispatches", c.cores, c.busy, h, s, want)
		}
		// A lone busy thread hands off only to let each staggered idle
		// thread start and finish; every other dispatch of it is a stay.
		if want := uint64(c.ops - (c.cores - 1)); c.busy == 1 && s != want {
			t.Errorf("%d cores, one busy thread: %d stays, want %d", c.cores, s, want)
		}
	}
}

// stopper spins on thread 0 and returns at once on the others, so thread 0
// outlives the rest and, once alone, never hands off. It closes cancel
// (when set) after closeAt ops and counts the ops that return after that;
// it gives up after closeAt+1000 ops, so a missed stop fails rather than
// hangs.
type stopper struct {
	cancel  chan struct{}
	closeAt int
	after   *int
}

func (w stopper) Name() string                { return "stopper" }
func (w stopper) Description() string         { return "one thread spinning alone" }
func (w stopper) Setup(*sim.Machine)          {}
func (w stopper) Validate(*sim.Machine) error { return nil }
func (w stopper) Run(t *sim.Thread) {
	if t.ID() != 0 {
		return
	}
	for i := 0; i < w.closeAt+1000; i++ {
		if i == w.closeAt && w.cancel != nil {
			close(w.cancel)
		}
		t.Work(100)
		if i >= w.closeAt {
			*w.after++
		}
	}
}

// stopCases are the runs in which the last running thread only ever stays:
// a single core, and one thread that outlives three.
var stopCases = []struct {
	name  string
	cores int
}{{"one-core", 1}, {"outlives-rest", 4}}

// TestCancelHonoredWithoutHandoff: a Cancel closed while the only running
// thread keeps being dispatched back to itself stops the run at its next
// op boundary.
func TestCancelHonoredWithoutHandoff(t *testing.T) {
	for _, c := range stopCases {
		t.Run(c.name, func(t *testing.T) {
			after := 0
			w := stopper{cancel: make(chan struct{}), closeAt: 20, after: &after}
			cfg := baseCfg(1)
			cfg.Cores = c.cores
			cfg.Cancel = w.cancel
			m, err := sim.NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Execute(w); !errors.Is(err, sim.ErrCanceled) {
				t.Fatalf("expected ErrCanceled, got %v", err)
			}
			if after != 0 {
				t.Errorf("%d ops completed after Cancel closed, want 0", after)
			}
		})
	}
}

// TestMaxCyclesHonoredWithoutHandoff: likewise for the MaxCycles watchdog,
// which must stop the run before any op starts past the limit.
func TestMaxCyclesHonoredWithoutHandoff(t *testing.T) {
	for _, c := range stopCases {
		t.Run(c.name, func(t *testing.T) {
			after := 0
			cfg := baseCfg(1)
			cfg.Cores = c.cores
			cfg.MaxCycles = 5000
			m, err := sim.NewMachine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = m.Execute(stopper{after: &after})
			if err == nil || errors.Is(err, sim.ErrCanceled) || !strings.Contains(err.Error(), "watchdog") {
				t.Fatalf("expected the MaxCycles watchdog error, got %v", err)
			}
			if now := m.Now(); now > cfg.MaxCycles {
				t.Errorf("an op ran at cycle %d, past MaxCycles %d", now, cfg.MaxCycles)
			}
			if after == 0 {
				t.Error("the spinning thread never ran")
			}
		})
	}
}
