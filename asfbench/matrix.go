package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	asfsim "repro"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// simCores is the simulated core count of every cell (the paper's 8).
const simCores = 8

// Each workload's set-up is repeated and the median reported as setup_s:
// three times for sim-matrix, whose set-up is a whole matrix, five times
// for serve-cold.
const (
	matrixSetupRepeats = 3
	serveSetupRepeats  = 5
)

// Paper headline numbers the accuracy metrics compare against: the Fig. 8
// false-conflict reduction at 4 sub-blocks and the Fig. 9 overall-conflict
// reduction under subblock-4, both averaged over the kernels.
const (
	paperFCRSub4 = 56.4
	paperOCRSub4 = 31.3
)

// matrixCells lists the paper's matrix at one seed in harness.Collect's
// job order: every kernel (Table III order) x every main detection.
func matrixCells(scale workloads.Scale, seed uint64) []harness.CellSpec {
	var cells []harness.CellSpec
	for _, wl := range asfsim.Workloads() {
		for _, d := range asfsim.Detections {
			cells = append(cells, harness.CellSpec{Workload: wl, Detection: d, Scale: scale, Seed: seed, Cores: simCores})
		}
	}
	return cells
}

func matrixOptions(seed uint64) harness.Options {
	return harness.Options{
		Scale:       workloads.ScaleSmall,
		Seeds:       []uint64{seed},
		Cores:       simCores,
		Workloads:   asfsim.Workloads(),
		Parallelism: runtime.GOMAXPROCS(0),
	}
}

// phaseHook returns the Config.Phases hook for cell i, or nil.
type phaseHook func(i int) func(phase string, d time.Duration)

// runCells simulates cells on workers goroutines, handing them out in
// order over an unbuffered channel as harness.Collect does, and times
// each cell: harness.Collect reports no per-cell times and has no Phases
// hook. With hook nil it takes the same allocation-free path as
// harness.RunCell.
func runCells(cells []harness.CellSpec, workers int, hook phaseHook) ([]*stats.Run, []time.Duration, error) {
	runs := make([]*stats.Run, len(cells))
	lat := make([]time.Duration, len(cells))
	errs := make([]error, len(cells))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				var phases func(string, time.Duration)
				if hook != nil {
					phases = hook(i)
				}
				t0 := time.Now()
				runs[i], errs[i] = harness.RunCellTimed(cells[i], nil, phases)
				lat[i] = time.Since(t0)
			}
		}()
	}
	for i := range cells {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return runs, lat, nil
}

// matrixRuns returns m's runs (one seed) in the order of cells.
func matrixRuns(m *harness.Matrix, cells []harness.CellSpec) []*stats.Run {
	runs := make([]*stats.Run, len(cells))
	for i, c := range cells {
		if cell := m.Cell(c.Workload, c.Detection); cell != nil && len(cell.Runs) == 1 {
			runs[i] = cell.Runs[0]
		}
	}
	return runs
}

// assemble builds the harness.Matrix that harness.Collect would return
// for runs (one per cell of matrixCells, one seed).
func assemble(opts harness.Options, cells []harness.CellSpec, runs []*stats.Run) *harness.Matrix {
	m := &harness.Matrix{Opts: opts, Cells: map[string]map[asfsim.Detection]*harness.Cell{}}
	for i, c := range cells {
		row := m.Cells[c.Workload]
		if row == nil {
			row = map[asfsim.Detection]*harness.Cell{}
			m.Cells[c.Workload] = row
		}
		row[c.Detection] = &harness.Cell{Runs: []*stats.Run{runs[i]}}
	}
	return m
}

// runsDigest is the SHA-256 of every run's canonical stats.Record
// encoding, one JSON line per run in the given (job) order, so that every
// cell of a matrix is checked and not only the figure data derived from
// some of them. A missing run hashes as "null".
func runsDigest(runs []*stats.Run) string {
	h := sha256.New()
	for _, r := range runs {
		if r == nil {
			h.Write([]byte("null"))
		} else {
			h.Write(recordBytes(stats.NewRecord(r)))
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// accuracy returns the absolute errors, in percentage points, of the
// matrix's Fig. 8 (4 sub-blocks) and Fig. 9 (subblock-4) averages
// against the paper.
func accuracy(m *harness.Matrix) (fcrErr, ocrErr float64) {
	rows := m.JSON().Rows
	if len(rows) == 0 {
		return 0, 0
	}
	sub4 := -1
	for i, n := range stats.AvoidableNs {
		if n == 4 {
			sub4 = i
		}
	}
	var fcr, ocr float64
	for _, r := range rows {
		fcr += r.Avoidable[sub4]
		ocr += r.OverallReductionSub4
	}
	n := float64(len(rows))
	return math.Abs(100*fcr/n - paperFCRSub4), math.Abs(100*ocr/n - paperOCRSub4)
}

//go:embed digests.txt
var recordedDigests string

// recordedDigest returns the run digest committed for seed, if any.
func recordedDigest(seed uint64) (string, bool) {
	for _, line := range strings.Split(recordedDigests, "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && !strings.HasPrefix(line, "#") && f[0] == strconv.FormatUint(seed, 10) {
			return f[1], true
		}
	}
	return "", false
}

// printDigests prints digests.txt for seeds from-to (inclusive): one
// "seed digest" line per seed, computed with harness.Collect.
func printDigests(span string) error {
	lo, hi, ok := strings.Cut(span, "-")
	from, err1 := strconv.ParseUint(lo, 10, 64)
	to, err2 := strconv.ParseUint(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || from > to {
		return fmt.Errorf("bad seed range %q (want FROM-TO)", span)
	}
	fmt.Println("# sim-matrix run digests: seed, SHA-256 of the stats.Record JSON of all 60 runs of harness.Collect, one line per run in job order.")
	fmt.Printf("# Regenerate: bash asfbench/run.sh --record-digests %s > asfbench/digests.txt\n", span)
	for s := from; s <= to; s++ {
		opts := matrixOptions(s)
		m, err := harness.Collect(opts, nil)
		if err != nil {
			return err
		}
		fmt.Printf("%d %s\n", s, runsDigest(matrixRuns(m, matrixCells(opts.Scale, s))))
	}
	return nil
}

// timing is what a measured window of back-to-back full matrices (or
// 60-cell serve passes) recorded.
type timing struct {
	matrix  []float64 // seconds per matrix or pass
	cellMs  []float64 // milliseconds per completed cell
	elapsed time.Duration
	cells   int // completed cells
}

// putEndToEnd records the end-to-end metrics of a window, with every
// time multiplied by scale (1 for wall time as measured; see hostSpeed
// for sim-matrix's). The declared
// tail is p85: each kernel is a tenth of the matrix's cells, so p90 falls
// on the gap between the kmeans cells and the rest and reads the slowest
// non-kmeans cell, and on serve-cold p95 falls where slow kmeans cells
// need a third poll. p90 and p99, shown in the report only, are added
// once ten samples lie beyond them.
func (b *bench) putEndToEnd(t *timing, peakMB, scale float64) {
	b.put("matrix_s", scale*median(t.matrix), "s", len(t.matrix))
	b.put("cells_per_s", float64(t.cells)/(scale*t.elapsed.Seconds()), "1/s", t.cells)
	b.put("cell_p50_ms", scale*quantile(t.cellMs, 0.50), "ms", len(t.cellMs))
	b.put("cell_p85_ms", scale*quantile(t.cellMs, 0.85), "ms", len(t.cellMs))
	if len(t.cellMs) >= 100 {
		b.put("cell_p90_ms", scale*quantile(t.cellMs, 0.90), "ms", len(t.cellMs))
	}
	if len(t.cellMs) >= 1000 {
		b.put("cell_p99_ms", scale*quantile(t.cellMs, 0.99), "ms", len(t.cellMs))
	}
	b.put("peak_heap_mb", peakMB, "MB", 1)
}

// matrixTiming is what one window of back-to-back matrices measured.
type matrixTiming struct {
	timing
	runs [][]*stats.Run // per matrix, in job order, for the digest check

	// Traced only: per-matrix totals from the Config.Phases hook.
	buildMs, acquireMs, executeS, reuse []float64
	kernelMs                            map[string][]float64
}

// timeMatrices runs whole matrices back to back until window has
// elapsed. Untraced, it alternates harness.Collect, whose matrices give
// matrix_s and cells_per_s, with runCells, whose matrices give the
// per-cell times; at least one of each runs. Traced, every matrix goes
// through runCells with the Phases hook. A host-speed calibration runs
// into speed before every matrix and after the last. Every matrix's runs
// are kept for the digest check; one whose simulation errors counts all
// its cells failed.
func (b *bench) timeMatrices(opts harness.Options, cells []harness.CellSpec, window time.Duration, traced bool, speed *hostSpeed) (*matrixTiming, error) {
	t := &matrixTiming{kernelMs: map[string][]float64{}}
	var spent time.Duration
	calibrate := func() error {
		d, err := speed.sample()
		spent += d
		return err
	}
	for n := 0; spent < window || n < 2; n++ {
		if err := calibrate(); err != nil {
			return nil, err
		}
		b.attempted += len(cells)
		if !traced && n%2 == 0 {
			t0 := time.Now()
			m, err := harness.Collect(opts, nil)
			d := time.Since(t0)
			spent += d
			if err != nil {
				b.fail(len(cells), "harness.Collect: %v", err)
				continue
			}
			t.elapsed += d
			t.cells += len(cells)
			t.matrix = append(t.matrix, d.Seconds())
			t.runs = append(t.runs, matrixRuns(m, cells))
			continue
		}

		var hook phaseHook
		build := make([]time.Duration, len(cells))
		acquire := make([]time.Duration, len(cells))
		execute := make([]time.Duration, len(cells))
		reused := make([]bool, len(cells))
		if traced {
			hook = func(i int) func(string, time.Duration) {
				return func(phase string, d time.Duration) {
					switch phase {
					case "workload.build":
						build[i] = d
					case "machine.reset":
						acquire[i], reused[i] = d, true
					case "machine.build":
						acquire[i] = d
					case "execute":
						execute[i] = d
					}
				}
			}
		}
		t0 := time.Now()
		runs, lat, err := runCells(cells, opts.Parallelism, hook)
		d := time.Since(t0)
		spent += d
		if err != nil {
			b.fail(len(cells), "matrix simulation: %v", err)
			continue
		}
		t.runs = append(t.runs, runs)
		for _, l := range lat {
			t.cellMs = append(t.cellMs, ms(l))
		}
		if !traced {
			continue
		}
		t.elapsed += d
		t.cells += len(cells)
		t.matrix = append(t.matrix, d.Seconds())
		var bsum, asum, esum time.Duration
		resets := 0
		perKernel := map[string]float64{}
		for i := range cells {
			bsum += build[i]
			asum += acquire[i]
			esum += execute[i]
			if reused[i] {
				resets++
			}
			perKernel[cells[i].Workload] += ms(execute[i])
		}
		t.buildMs = append(t.buildMs, ms(bsum))
		t.acquireMs = append(t.acquireMs, ms(asum))
		t.executeS = append(t.executeS, esum.Seconds())
		t.reuse = append(t.reuse, float64(resets)/float64(len(cells)))
		for k, v := range perKernel {
			t.kernelMs[k] = append(t.kernelMs[k], v)
		}
	}
	if err := calibrate(); err != nil {
		return nil, err
	}
	return t, nil
}

// verifyMatrices checks every timed matrix's run digest against want.
func (b *bench) verifyMatrices(t *matrixTiming, want string) {
	for i, runs := range t.runs {
		if d := runsDigest(runs); d != want {
			b.fail(len(runs), "matrix %d run digest %s, want %s", i, d, want)
		}
	}
}

// runSimMatrix is the sim-matrix workload: the paper's matrix at small
// scale, simulated in-process with no service layer.
func runSimMatrix(b *bench) error {
	opts := matrixOptions(b.seed)
	cells := matrixCells(opts.Scale, b.seed)
	before := snapshotProcess()

	// Set-up: a cold harness.Collect (the simulator's machine pool is a
	// sync.Pool, emptied by two collections) that fixes the reference
	// runs every timed matrix must reproduce.
	var setups []float64
	var ref *harness.Matrix
	var setupSpeed hostSpeed
	want, recorded := recordedDigest(b.seed)
	for i := 0; i < matrixSetupRepeats; i++ {
		if _, err := setupSpeed.sample(); err != nil {
			return err
		}
		runtime.GC()
		runtime.GC()
		t0 := time.Now()
		m, err := harness.Collect(opts, nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		d := runsDigest(matrixRuns(m, cells))
		if !recorded {
			want, recorded = d, true
			b.note("seed %d has no recorded digest; matrices are checked against the set-up matrix %s", b.seed, d)
		}
		if d != want {
			b.fail(0, "set-up harness.Collect run digest %s, want %s", d, want)
		}
		ref = m
	}
	if _, err := setupSpeed.sample(); err != nil {
		return err
	}
	b.put("setup_s", setupSpeed.factor()*median(setups), "s", len(setups))
	b.put("raw.setup_s", median(setups), "s", len(setups))
	b.put("host.setup_calib_s", median(setupSpeed.calibS), "s", len(setupSpeed.calibS))
	fcrErr, ocrErr := accuracy(ref)
	b.put("fcr_sb4_err_pp", fcrErr, "pp", 1)
	b.put("ocr_sb4_err_pp", ocrErr, "pp", 1)

	window := b.window
	if b.traced {
		window = b.half()
	}
	heap := startHeapSampler()
	var speed hostSpeed
	plain, err := b.timeMatrices(opts, cells, window, false, &speed)
	if err != nil {
		return err
	}
	b.putEndToEnd(&plain.timing, heap.stopMB(), speed.factor())
	b.put("raw.matrix_s", median(plain.matrix), "s", len(plain.matrix))
	b.put("raw.cell_p50_ms", quantile(plain.cellMs, 0.5), "ms", len(plain.cellMs))
	b.put("host.calib_s", median(speed.calibS), "s", len(speed.calibS))
	b.verifyMatrices(plain, want)
	if !b.traced {
		return nil
	}

	prof, err := startProfile()
	if err != nil {
		return err
	}
	var tracedSpeed hostSpeed
	traced, err := b.timeMatrices(opts, cells, window, true, &tracedSpeed)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	b.verifyMatrices(traced, want)
	if err := b.putProfile(prof); err != nil {
		return err
	}
	b.put("trace.overhead_pct", 100*(tracedSpeed.factor()*median(traced.matrix)/(speed.factor()*median(plain.matrix))-1), "%", len(traced.matrix))
	b.put("workloads.build_ms", median(traced.buildMs), "ms", len(traced.buildMs))
	b.put("sim.acquire_ms", median(traced.acquireMs), "ms", len(traced.acquireMs))
	b.put("sim.execute_s", median(traced.executeS), "s", len(traced.executeS))
	b.put("sim.reuse_ratio", median(traced.reuse), "ratio", len(traced.reuse))
	for _, wl := range asfsim.Workloads() {
		b.put("sim.execute_ms."+wl, median(traced.kernelMs[wl]), "ms", len(traced.kernelMs[wl]))
	}
	if len(traced.runs) > 0 {
		b.putSimCounts(traced.runs[0], median(traced.executeS))
	}
	if err := b.putLayerMicro(); err != nil {
		return err
	}
	b.putServeLayersAbsent()
	b.putProcessDelta(before)
	return nil
}

// putSimCounts records the simulated-design counts of one matrix's runs
// (deterministic per seed) and the host cost per simulated cycle and per
// speculative op, given the matrix's summed execute seconds.
func (b *bench) putSimCounts(runs []*stats.Run, executeS float64) {
	var c struct {
		started, committed, conflicts, falseC, spec, probes, remote, memory uint64
		cycles, backoff, total                                              int64
	}
	for _, r := range runs {
		c.started += r.TxStarted
		c.committed += r.TxCommitted
		c.conflicts += r.Conflicts
		c.falseC += r.FalseConflicts
		c.spec += r.SpecLoads + r.SpecStores
		c.probes += r.ProbesShared + r.ProbesInvalidate
		c.remote += r.DataFromRemote
		c.memory += r.DataFromMemory
		c.cycles += r.Cycles
		c.backoff += r.CyclesInBackoff
		c.total += r.CyclesInTx + r.CyclesInBackoff + r.CyclesNonTx
	}
	n := len(runs)
	b.put("sim.tx_started", float64(c.started), "count", n)
	b.put("sim.tx_committed", float64(c.committed), "count", n)
	b.put("core.commit_ratio", ratio(float64(c.committed), float64(c.started)), "ratio", n)
	b.put("core.conflicts", float64(c.conflicts), "count", n)
	b.put("core.false_conflicts", float64(c.falseC), "count", n)
	b.put("core.spec_ops", float64(c.spec), "count", n)
	b.put("coherence.probes", float64(c.probes), "count", n)
	b.put("coherence.data_remote", float64(c.remote), "count", n)
	b.put("coherence.data_memory", float64(c.memory), "count", n)
	b.put("sim.backoff_cycle_share", ratio(float64(c.backoff), float64(c.total)), "ratio", n)
	b.put("sim.mcycles_per_s", ratio(float64(c.cycles)/1e6, executeS), "Mcycles/s", n)
	b.put("sim.ns_per_spec_op", ratio(executeS*1e9, float64(c.spec)), "ns", n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
