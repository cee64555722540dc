package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	asfsim "repro"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/trace"
)

// spinWorkload is a synthetic workload whose threads each issue ops
// single-cycle operations: Thread.Work(1), the bare scheduler round trip,
// or Thread.Load on lines private to the thread, which adds the core,
// coherence, cache and memory layers.
type spinWorkload struct {
	ops   int
	load  bool
	lines [][]asfsim.Addr
}

const privateLines = 64

func (w *spinWorkload) Name() string        { return "spin" }
func (w *spinWorkload) Description() string { return "per-thread single-cycle op loop" }

func (w *spinWorkload) Setup(m *asfsim.Machine) {
	w.lines = make([][]asfsim.Addr, simCores)
	if !w.load {
		return
	}
	for t := range w.lines {
		for i := 0; i < privateLines; i++ {
			w.lines[t] = append(w.lines[t], m.Alloc().AllocLine(8))
		}
	}
}

func (w *spinWorkload) Run(t *asfsim.Thread) {
	for i := 0; i < w.ops; i++ {
		if w.load {
			t.Load(w.lines[t.ID()][i%privateLines], 8)
		} else {
			t.Work(1)
		}
	}
}

func (w *spinWorkload) Validate(*asfsim.Machine) error { return nil }

// spinNs returns host ns per simulated op of the spin workload at the
// given GOMAXPROCS, the median of five runs.
func spinNs(load bool, procs int) (float64, error) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	const ops = 20000
	cfg := asfsim.DefaultConfig()
	cfg.Cores = simCores
	var per []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := asfsim.RunWorkload(&spinWorkload{ops: ops, load: load}, cfg); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(ops*simCores))
	}
	return median(per), nil
}

// lineOp is one memory access of a recorded trace, reduced to what the
// layer calls take.
type lineOp struct {
	core      int
	line      mem.LineAddr
	off, size int
	write     bool
}

// kmeansLineStream records a kmeans run at tiny scale with
// Config.RecordTrace and returns its memory accesses as line operations.
func kmeansLineStream() ([]lineOp, error) {
	var buf bytes.Buffer
	cfg := asfsim.DefaultConfig()
	cfg.Cores = simCores
	cfg.RecordTrace = &buf
	if _, err := asfsim.Run("kmeans", asfsim.ScaleTiny, cfg); err != nil {
		return nil, err
	}
	tr, err := trace.Read(&buf)
	if err != nil {
		return nil, err
	}
	m, err := asfsim.NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	geom := m.Geometry()
	var ops []lineOp
	// Interleave the threads round-robin, one op each, as a stand-in for
	// the scheduler's interleaving.
	for i := 0; ; i++ {
		more := false
		for t, stream := range tr.Ops {
			if i >= len(stream) {
				continue
			}
			more = true
			op := stream[i]
			switch op.Kind {
			case "load", "nload", "store", "nstore":
				a := mem.Addr(op.Addr)
				ops = append(ops, lineOp{
					core: t, line: geom.Line(a), off: geom.Offset(a), size: op.Size,
					write: op.Kind == "store" || op.Kind == "nstore",
				})
			}
		}
		if !more {
			break
		}
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("kmeans trace recorded no memory operations")
	}
	return ops, nil
}

// nsPerCall times fn, which makes calls calls, in batches until at least
// 200ms have passed, and returns the median ns per call over batches.
func nsPerCall(calls int, fn func()) float64 {
	var per []float64
	var total time.Duration
	for total < 200*time.Millisecond || len(per) < 5 {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		total += d
		per = append(per, float64(d.Nanoseconds())/float64(calls))
	}
	return median(per)
}

var sink int

// putLayerMicro measures the scheduler handoff and the per-call cost of
// the memory-system layers, driving each through its public functions.
func (b *bench) putLayerMicro() error {
	for _, m := range []struct {
		name  string
		load  bool
		procs int
	}{{"sim.handoff_ns.p1", false, 1}, {"sim.handoff_ns.p2", false, 2}, {"sim.load_op_ns.p1", true, 1}} {
		ns, err := spinNs(m.load, m.procs)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		b.put(m.name, ns, "ns", 5)
	}

	ops, err := kmeansLineStream()
	if err != nil {
		return err
	}
	idx := mem.NewLineIndexer()
	for _, op := range ops {
		idx.Index(op.line)
	}
	b.put("mem.line_lookup_ns", nsPerCall(len(ops), func() {
		for _, op := range ops {
			i, _ := idx.Lookup(op.line)
			sink += i
		}
	}), "ns", len(ops))

	hiers := make([]*cache.Hierarchy, simCores)
	for i := range hiers {
		hiers[i] = cache.NewHierarchy(cache.DefaultHierarchy())
	}
	b.put("cache.hier_access_ns", nsPerCall(len(ops), func() {
		for _, op := range ops {
			lv, _ := hiers[op.core].Access(op.line)
			sink += int(lv)
		}
	}), "ns", len(ops))

	var reads, writes []lineOp
	for _, op := range ops {
		if op.write {
			writes = append(writes, op)
		} else {
			reads = append(reads, op)
		}
	}
	if len(reads) == 0 || len(writes) == 0 {
		return fmt.Errorf("kmeans trace has %d reads and %d writes", len(reads), len(writes))
	}
	bus := coherence.NewBus(simCores)
	bus.EnableSnoopFilter()
	b.put("coherence.bus_read_ns", nsPerCall(len(reads), func() {
		for _, op := range reads {
			r := bus.Read(op.core, op.line, op.off, op.size, true, true)
			sink += int(r.Source)
		}
	}), "ns", len(reads))
	bus = coherence.NewBus(simCores)
	bus.EnableSnoopFilter()
	b.put("coherence.bus_write_ns", nsPerCall(len(writes), func() {
		for _, op := range writes {
			r := bus.Write(op.core, op.line, op.off, op.size, true)
			sink += int(r.Source)
		}
	}), "ns", len(writes))
	return nil
}

// Metrics of layers a workload never reaches are reported as 0 so that
// every traced run emits the full declared set.

func (b *bench) putSimMicroAbsent() {
	for _, n := range []string{"sim.handoff_ns.p1", "sim.handoff_ns.p2", "sim.load_op_ns.p1",
		"mem.line_lookup_ns", "cache.hier_access_ns", "coherence.bus_read_ns", "coherence.bus_write_ns"} {
		b.put(n, 0, "ns", 0)
	}
}

func (b *bench) putServeLayersAbsent() {
	for _, n := range stageNames {
		b.put("service."+n+"_ms_p50", 0, "ms", 0)
	}
	b.put("service.admission_ms_p99", 0, "ms", 0)
	b.put("client.submit_ms_p50", 0, "ms", 0)
	b.put("client.poll_wait_ms_p50", 0, "ms", 0)
	b.put("client.polls_per_cell", 0, "count", 0)
	b.put("client.retries", 0, "count", 0)
	b.put("service.journal_appends_per_cell", 0, "count", 0)
	b.put("service.cache_hit_ratio", 0, "ratio", 0)
	b.put("service.sim_cycles_executed", 0, "count", 0)
	b.put("service.shed", 0, "count", 0)
}
