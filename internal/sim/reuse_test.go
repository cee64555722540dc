// Machine-reuse equivalence tests. They live in an external test package
// because they drive real workloads (package workloads imports sim).
package sim_test

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

type runSpec struct {
	name     string
	workload string
	cfg      sim.Config
}

func baseCfg(seed uint64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Cores = 4
	cfg.Seed = seed
	return cfg
}

// reuseSpecs is a gauntlet of configurations that exercise every subsystem
// Reset must rewind: detection modes (including signatures, which disable
// the snoop filter), fault injection (which changes the rng fork pattern),
// the watchdog, holder-wins NACKs and trace instruments.
func reuseSpecs() []runSpec {
	specs := []runSpec{}

	cfg := baseCfg(1)
	specs = append(specs, runSpec{"baseline-kmeans", "kmeans", cfg})

	cfg = baseCfg(7)
	cfg.Core = core.Config{Mode: core.ModeSubBlock, SubBlocks: 4,
		RetainInvalidState: true, DirtyProtocol: true}
	specs = append(specs, runSpec{"subblock4-vacation", "vacation", cfg})

	cfg = baseCfg(3)
	cfg.Core = core.Config{Mode: core.ModeSignature}
	specs = append(specs, runSpec{"signature-kmeans", "kmeans", cfg})

	cfg = baseCfg(5)
	cfg.Fault = fault.Config{InterruptRate: 2e-5, TLBRate: 1e-5, CapacityNoiseRate: 0.01}
	specs = append(specs, runSpec{"faults-kmeans", "kmeans", cfg})

	cfg = baseCfg(9)
	cfg.Watchdog = sim.WatchdogConfig{Window: 20000, Mitigate: true}
	cfg.TraceSeries = true
	cfg.TraceOffsets = true
	specs = append(specs, runSpec{"watchdog-traced-intruder", "intruder", cfg})

	cfg = baseCfg(11)
	cfg.Core = core.Config{Mode: core.ModeSubBlock, SubBlocks: 8,
		RetainInvalidState: true, DirtyProtocol: true, Resolution: core.HolderWins}
	specs = append(specs, runSpec{"holderwins-kmeans", "kmeans", cfg})

	return specs
}

func runFresh(t *testing.T, s runSpec) *stats.Run {
	t.Helper()
	w, err := workloads.New(s.workload, workloads.ScaleTiny)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	m, err := sim.NewMachine(s.cfg)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	r, err := m.Execute(w)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	return r
}

func runReused(t *testing.T, m *sim.Machine, s runSpec) *stats.Run {
	t.Helper()
	w, err := workloads.New(s.workload, workloads.ScaleTiny)
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	if err := m.Reset(s.cfg); err != nil {
		t.Fatalf("%s: reset: %v", s.name, err)
	}
	r, err := m.Execute(w)
	if err != nil {
		t.Fatalf("%s: reused execute: %v", s.name, err)
	}
	return r
}

// TestMachineReuseIsClean runs the whole spec gauntlet twice — once on
// fresh machines, once on ONE machine reset between runs in every
// cross-configuration order the slice gives — and demands bit-identical
// Run records. Any state leaking across a reset (cache residue, stale
// speculative bits, rng drift, a surviving watchdog boost) shows up as a
// stats mismatch.
func TestMachineReuseIsClean(t *testing.T) {
	specs := reuseSpecs()
	fresh := make([]*stats.Run, len(specs))
	for i, s := range specs {
		fresh[i] = runFresh(t, s)
	}

	m, err := sim.NewMachine(specs[0].cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.New(specs[0].workload, workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Execute(w); err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		got := runReused(t, m, s)
		if !reflect.DeepEqual(got, fresh[i]) {
			t.Errorf("%s: reused-machine run diverged from fresh machine\nreused: %+v\nfresh:  %+v",
				s.name, got, fresh[i])
		}
	}
	// And back-to-back reuse of the same spec stays stable.
	again := runReused(t, m, specs[0])
	if !reflect.DeepEqual(again, fresh[0]) {
		t.Errorf("second reuse of %s diverged from fresh run", specs[0].name)
	}
}

// TestMachinePoolMatchesFresh routes the gauntlet through a MachinePool
// and checks results against fresh machines — the pool must be invisible.
func TestMachinePoolMatchesFresh(t *testing.T) {
	var pool sim.MachinePool
	for _, s := range reuseSpecs() {
		fresh := runFresh(t, s)
		w, err := workloads.New(s.workload, workloads.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		m, err := pool.Get(s.cfg)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		got, err := m.Execute(w)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		pool.Put(m)
		if !reflect.DeepEqual(got, fresh) {
			t.Errorf("%s: pooled run diverged from fresh machine", s.name)
		}
	}
}

// TestResetRejectsStructuralChanges: core count, hierarchy and geometry
// are frozen at construction.
func TestResetRejectsStructuralChanges(t *testing.T) {
	m, err := sim.NewMachine(baseCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	bad := baseCfg(1)
	bad.Cores = 8
	if err := m.Reset(bad); err == nil {
		t.Error("reset accepted a core-count change")
	}
	bad = baseCfg(1)
	bad.Hier.L1.SizeBytes *= 2
	if err := m.Reset(bad); err == nil {
		t.Error("reset accepted a hierarchy change")
	}
}

// failingWorkload is kmeans whose thread 1 panics partway through its
// run, after the other threads have parked mid-workload.
type failingWorkload struct{ sim.Workload }

func (w failingWorkload) Run(t *sim.Thread) {
	if t.ID() == 1 {
		t.Work(5000)
		panic("injected thread failure")
	}
	w.Workload.Run(t)
}

// erroredRuns are the ways a run can end early: canceled before its first
// op, canceled or stopped by MaxCycles mid-run, and a panicking thread.
func erroredRuns() []struct {
	name string
	run  func(t *testing.T, m *sim.Machine)
} {
	execute := func(t *testing.T, m *sim.Machine, cfg sim.Config, w sim.Workload) error {
		t.Helper()
		if err := m.Reset(cfg); err != nil {
			t.Fatalf("reset for errored run: %v", err)
		}
		_, err := m.Execute(w)
		return err
	}
	kmeans := func(t *testing.T) sim.Workload {
		t.Helper()
		w, err := workloads.New("kmeans", workloads.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	return []struct {
		name string
		run  func(t *testing.T, m *sim.Machine)
	}{
		{"canceled-before-start", func(t *testing.T, m *sim.Machine) {
			cancel := make(chan struct{})
			close(cancel)
			cfg := baseCfg(1)
			cfg.Cancel = cancel
			if err := execute(t, m, cfg, kmeans(t)); !errors.Is(err, sim.ErrCanceled) {
				t.Fatalf("expected ErrCanceled, got %v", err)
			}
		}},
		{"max-cycles", func(t *testing.T, m *sim.Machine) {
			cfg := baseCfg(1)
			cfg.MaxCycles = 2000 // far too few for kmeans to finish
			if err := execute(t, m, cfg, kmeans(t)); err == nil {
				t.Fatal("expected the MaxCycles watchdog to fire")
			}
		}},
		{"thread-panic", func(t *testing.T, m *sim.Machine) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected the thread panic to propagate")
				}
			}()
			execute(t, m, baseCfg(1), failingWorkload{kmeans(t)})
		}},
	}
}

// TestErroredRunResetsClean: a machine whose run failed is reset and
// reused like one that finished. After each kind of errored run, every
// spec of the gauntlet run on the same machine is bit-identical to a
// fresh machine's run.
func TestErroredRunResetsClean(t *testing.T) {
	specs := reuseSpecs()
	fresh := make([]*stats.Run, len(specs))
	for i, s := range specs {
		fresh[i] = runFresh(t, s)
	}
	for _, e := range erroredRuns() {
		m, err := sim.NewMachine(baseCfg(1))
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range specs {
			e.run(t, m)
			if got := runReused(t, m, s); !reflect.DeepEqual(got, fresh[i]) {
				t.Errorf("%s then %s: run diverged from fresh machine", e.name, s.name)
			}
		}
	}
}

// TestErroredRunsDoNotLeak: canceled and MaxCycles-stopped runs on fresh
// machines leave no goroutine behind and no machine reachable, so the
// goroutine count and the post-GC live heap return to their baseline.
func TestErroredRunsDoNotLeak(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	baseG, baseHeap := runtime.NumGoroutine(), heap()

	for i := 0; i < 20; i++ {
		for _, e := range erroredRuns()[:2] {
			m, err := sim.NewMachine(baseCfg(1))
			if err != nil {
				t.Fatal(err)
			}
			e.run(t, m)
		}
		// A cancellation that lands while the threads are mid-workload.
		cancel := make(chan struct{})
		cfg := baseCfg(uint64(i + 1))
		cfg.Cancel = cancel
		m, err := sim.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workloads.New("kmeans", workloads.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		timer := time.AfterFunc(200*time.Microsecond, func() { close(cancel) })
		m.Execute(w)
		timer.Stop()
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseG && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseG {
		t.Errorf("goroutines: %d after 60 errored runs, baseline %d", g, baseG)
	}
	// One leaked machine pins several MB; allow only allocator noise.
	if h := heap(); h > baseHeap+4<<20 {
		t.Errorf("live heap: %d MB after 60 errored runs, baseline %d MB", h>>20, baseHeap>>20)
	}
}
