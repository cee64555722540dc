package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	asfsim "repro"
	"repro/client"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// traceCapacity sizes the server and client span rings of a traced run.
// It holds the spans of more than the analysedCells newest cells (about
// 12 server spans per cell) while keeping the per-trace ring scan of
// GET /v1/traces/{id} short.
const (
	traceCapacity = 1 << 14
	analysedCells = 1000
)

// passCells is the number of cells in one pass: the full paper matrix.
var passCells = len(asfsim.Workloads()) * len(asfsim.Detections)

// passSeed is the cell seed of serve pass p. Every pass of a run has its
// own seed, so every request misses the result cache.
func passSeed(seed uint64, p int) uint64 { return seed*1_000_000 + uint64(p) + 1 }

func passRequests(seed uint64, p int) ([]harness.CellSpec, []service.JobRequest) {
	cells := matrixCells(workloads.ScaleTiny, passSeed(seed, p))
	reqs := make([]service.JobRequest, len(cells))
	for i, c := range cells {
		reqs[i] = service.JobRequest{
			Workload:  c.Workload,
			Detection: c.Detection.String(),
			Scale:     c.Scale.String(),
			Seed:      c.Seed,
			Cores:     c.Cores,
		}
	}
	return cells, reqs
}

// daemon is an in-process asfd: the service behind its HTTP handler on
// a loopback listener, journaling and snapshotting as `asfd -journal`
// does.
type daemon struct {
	srv    *service.Server
	http   *http.Server
	url    string
	served chan error
}

func startDaemon(dir string, tracer *obs.Tracer) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{
		Workers:      runtime.GOMAXPROCS(0),
		JournalPath:  filepath.Join(dir, "journal.wal"),
		SnapshotPath: filepath.Join(dir, "cache.json"),
		Tracer:       tracer,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Kill()
		return nil, err
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.http.Serve(ln) }()
	return d, nil
}

// stop closes the listener and connections, drains the service and
// waits for the serving goroutine; the client's idle connections are
// dropped so no connection goroutine outlives the daemon.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serveErr := <-d.served; serveErr != http.ErrServerClosed && err == nil {
		err = serveErr
	}
	if sErr := d.srv.Shutdown(ctx); err == nil {
		err = sErr
	}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	return err
}

// cellResult is one client-observed RunCell.
type cellResult struct {
	pass       int
	rec        *stats.Record
	trace      string
	start, end time.Time
	err        error
}

// runPass drives one pass of reqs through c from clients closed-loop
// goroutines, each calling RunCell for one cell at a time.
func runPass(ctx context.Context, c *client.Client, pass int, reqs []service.JobRequest, clients int) ([]cellResult, time.Duration) {
	results := make([]cellResult, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				start := time.Now()
				rec, trace, err := c.RunCellTraced(ctx, reqs[i])
				results[i] = cellResult{pass: pass, rec: rec, trace: trace, start: start, end: time.Now(), err: err}
			}
		}()
	}
	wg.Wait()
	return results, time.Since(t0)
}

// recordBytes is the canonical encoding a served record is compared by.
func recordBytes(r *stats.Record) []byte {
	data, err := json.Marshal(r)
	if err != nil {
		return nil
	}
	return data
}

// serveSession is one daemon with its client, ready to be measured.
type serveSession struct {
	d *daemon
	c *client.Client
}

// setupServe starts a daemon and serves its first cell, checked against
// an in-process run, so that the first connection and the first machine
// build happen before timing. It does so repeats times, keeping the last
// daemon, and returns the median set-up time. Non-nil tracers make the
// server record its stage spans and the client mint a trace ID per cell.
func (b *bench) setupServe(ctx context.Context, server, clientT *obs.Tracer, repeats int, tag string) (*serveSession, float64, error) {
	var times []float64
	var s *serveSession
	cells, reqs := passRequests(b.seed, 0)
	cells, reqs = cells[:1], reqs[:1]
	for i := 0; i < repeats; i++ {
		if s != nil {
			if err := s.d.stop(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		d, err := startDaemon(filepath.Join(b.tmp, fmt.Sprintf("%s-%d", tag, i)), server)
		if err != nil {
			return nil, 0, err
		}
		s = &serveSession{d: d, c: client.New(d.url, client.Options{Tracer: clientT, Seed: b.seed})}
		res, _ := runPass(ctx, s.c, 0, reqs, runtime.GOMAXPROCS(0))
		times = append(times, time.Since(t0).Seconds())
		for j, r := range res {
			if r.err != nil {
				s.d.stop()
				return nil, 0, fmt.Errorf("set-up cell %s/%s: %w", reqs[j].Workload, reqs[j].Detection, r.err)
			}
		}
		b.verifyCold(cells, res, 0)
	}
	return s, median(times), nil
}

// verifyCold checks served records against in-process harness.RunCell
// runs of the same cells. countCells is how many failed cells a mismatch
// adds (0 for set-up).
func (b *bench) verifyCold(cells []harness.CellSpec, res []cellResult, countCells int) {
	runs, _, err := runCells(cells, runtime.GOMAXPROCS(0), nil)
	if err != nil {
		b.fail(countCells*len(cells), "in-process reference runs: %v", err)
		return
	}
	for i, r := range res {
		if r.err != nil {
			continue // already counted as failed
		}
		if !bytes.Equal(recordBytes(r.rec), recordBytes(stats.NewRecord(runs[i]))) {
			b.fail(countCells, "served %s/%v seed %d differs from in-process harness.RunCell", cells[i].Workload, cells[i].Detection, cells[i].Seed)
		}
	}
}

// serveTiming is what one window of back-to-back passes measured.
type serveTiming struct {
	timing
	results []cellResult // every result, for verification
	last    []cellResult // the most recent cells, for trace analysis
	before  service.MetricsSnapshot
	after   service.MetricsSnapshot
}

// serveWindow runs passes until window has elapsed, starting at pass
// index firstPass.
func (b *bench) serveWindow(ctx context.Context, s *serveSession, window time.Duration, firstPass int) (*serveTiming, int, error) {
	t := &serveTiming{}
	clients := runtime.GOMAXPROCS(0)
	var err error
	if t.before, err = s.c.Metrics(ctx); err != nil {
		return nil, 0, err
	}
	p := firstPass
	for ; t.elapsed < window; p++ {
		_, reqs := passRequests(b.seed, p)
		res, d := runPass(ctx, s.c, p, reqs, clients)
		t.elapsed += d
		t.matrix = append(t.matrix, d.Seconds())
		b.attempted += len(res)
		for i, r := range res {
			if r.err != nil {
				b.fail(1, "cell %s/%s seed %d: %v", reqs[i].Workload, reqs[i].Detection, reqs[i].Seed, r.err)
				continue
			}
			t.cells++
			t.cellMs = append(t.cellMs, ms(r.end.Sub(r.start)))
		}
		t.results = append(t.results, res...)
		t.last = append(t.last, res...)
		if len(t.last) > 2*analysedCells {
			t.last = append([]cellResult(nil), t.last[len(t.last)-analysedCells:]...)
		}
	}
	if t.after, err = s.c.Metrics(ctx); err != nil {
		return nil, 0, err
	}
	return t, p, nil
}

// verifyWindow checks every cell of the window against an
// in-process run, outside the measured time.
func (b *bench) verifyWindow(t *serveTiming) {
	for i := 0; i+passCells <= len(t.results); i += passCells {
		res := t.results[i : i+passCells]
		cells, _ := passRequests(b.seed, res[0].pass)
		b.verifyCold(cells, res, 1)
	}
}

// runServe is the serve-cold workload: an in-process asfd on which every
// cell misses the cache.
func runServe(b *bench) error {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	before := snapshotProcess()
	window := b.window
	if b.traced {
		window = b.half()
	}

	s, setup, err := b.setupServe(ctx, nil, nil, serveSetupRepeats, "plain")
	if err != nil {
		return err
	}
	b.put("setup_s", setup, "s", serveSetupRepeats)
	heap := startHeapSampler()
	plain, nextPass, err := b.serveWindow(ctx, s, window, 1)
	peak := heap.stopMB()
	if stopErr := s.d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	b.putEndToEnd(&plain.timing, peak, 1)
	b.verifyWindow(plain)
	if !b.traced {
		return nil
	}

	serverTracer := obs.NewTracer(traceCapacity, nil)
	clientTracer := obs.NewTracer(traceCapacity, nil)
	s, _, err = b.setupServe(ctx, serverTracer, clientTracer, 1, "traced")
	if err != nil {
		return err
	}
	prof, err := startProfile()
	if err != nil {
		s.d.stop()
		return err
	}
	traced, _, err := b.serveWindow(ctx, s, window, nextPass)
	pprof.StopCPUProfile()
	if err == nil {
		err = b.putServeTrace(ctx, s, traced)
	}
	if stopErr := s.d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	b.verifyWindow(traced)
	if err := b.putProfile(prof); err != nil {
		return err
	}
	b.put("trace.overhead_pct", 100*(float64(plain.cells)/plain.elapsed.Seconds()/(float64(traced.cells)/traced.elapsed.Seconds())-1), "%", traced.cells)
	b.putSimMicroAbsent()
	b.putProcessDelta(before)
	return nil
}

// stageNames are the server pipeline stages whose self time is reported.
var stageNames = []string{"admission", "queue", "cache", "journal", "execute", "respond"}

// putServeTrace joins the client spans of the window's last cells with
// the server spans fetched by trace ID, and derives the client, service
// and simulator-phase per-layer metrics.
func (b *bench) putServeTrace(ctx context.Context, s *serveSession, t *serveTiming) error {
	last := t.last
	if len(last) > analysedCells {
		last = last[len(last)-analysedCells:]
	}
	clientSpans := map[string][]obs.Span{}
	for _, sp := range s.c.Tracer().Spans() {
		clientSpans[sp.Trace] = append(clientSpans[sp.Trace], sp)
	}
	stage := map[string][]float64{}
	var submitMs, pollWaitMs []float64
	polls := 0
	type passPhases struct{ build, acquire, execute float64 }
	var resets, acquisitions float64
	phases := map[int]*passPhases{}
	kernel := map[int]map[string]float64{}
	cellsInPass := map[int]int{}
	analysed := 0
	for _, r := range last {
		if r.err != nil || r.trace == "" {
			continue
		}
		tr, err := s.c.ServerTrace(ctx, r.trace)
		if err != nil {
			continue // spans already overwritten in the ring
		}
		analysed++
		cellsInPass[r.pass]++
		selfs := stageSelfTimes(tr.Spans)
		for _, name := range stageNames {
			stage[name] = append(stage[name], selfs[name])
		}
		pollWaitMs = append(pollWaitMs, ms(r.end.Sub(r.start)-covered(tr.Spans, r.start, r.end)))
		for _, sp := range clientSpans[r.trace] {
			if sp.Name != "rpc" {
				continue
			}
			switch {
			case sp.Attrs["method"] == http.MethodPost:
				submitMs = append(submitMs, ms(sp.Duration()))
			case strings.HasPrefix(sp.Attrs["path"], "/v1/jobs/"):
				polls++
			}
		}
		pp := phases[r.pass]
		if pp == nil {
			pp = &passPhases{}
			phases[r.pass] = pp
			kernel[r.pass] = map[string]float64{}
		}
		for _, sp := range tr.Spans {
			switch sp.Name {
			case "execute.workload.build":
				pp.build += ms(sp.Duration())
			case "execute.machine.reset", "execute.machine.build":
				pp.acquire += ms(sp.Duration())
				acquisitions++
				if sp.Name == "execute.machine.reset" {
					resets++
				}
			case "execute.execute":
				pp.execute += sp.Duration().Seconds()
				kernel[r.pass][r.rec.Workload] += ms(sp.Duration())
			}
		}
	}
	if analysed == 0 {
		return fmt.Errorf("no traced cells to analyse")
	}
	for _, name := range stageNames {
		b.put("service."+name+"_ms_p50", quantile(stage[name], 0.5), "ms", analysed)
	}
	b.put("service.admission_ms_p99", quantile(stage["admission"], 0.99), "ms", analysed)
	b.put("client.submit_ms_p50", quantile(submitMs, 0.5), "ms", len(submitMs))
	b.put("client.poll_wait_ms_p50", quantile(pollWaitMs, 0.5), "ms", analysed)
	b.put("client.polls_per_cell", float64(polls)/float64(analysed), "count", analysed)
	st := s.c.Stats()
	b.put("client.retries", float64(st.RetriesSpent+st.Resubmissions), "count", 1)

	before, after := t.before, t.after
	done := float64(t.cells)
	b.put("service.journal_appends_per_cell", ratio(float64(after.JournalRecords-before.JournalRecords), done), "count", t.cells)
	hits := float64(after.CacheHits - before.CacheHits)
	b.put("service.cache_hit_ratio", ratio(hits, hits+float64(after.CacheMisses-before.CacheMisses)), "ratio", t.cells)
	b.put("service.sim_cycles_executed", float64(after.SimCyclesExecuted-before.SimCyclesExecuted), "count", 1)
	b.put("service.shed", float64(after.ShedExpired-before.ShedExpired+after.ShedOverload-before.ShedOverload), "count", 1)

	// Simulator phases per full 60-cell pass, from the execute.* spans of
	// passes whose every cell was analysed.
	var build, acquire, execute []float64
	kernelMs := map[string][]float64{}
	var passes []int
	for p, n := range cellsInPass {
		if n == passCells {
			passes = append(passes, p)
		}
	}
	sort.Ints(passes)
	for _, p := range passes {
		build = append(build, phases[p].build)
		acquire = append(acquire, phases[p].acquire)
		execute = append(execute, phases[p].execute)
		for wl, v := range kernel[p] {
			kernelMs[wl] = append(kernelMs[wl], v)
		}
	}
	b.put("workloads.build_ms", median(build), "ms", len(build))
	b.put("sim.acquire_ms", median(acquire), "ms", len(acquire))
	b.put("sim.execute_s", median(execute), "s", len(execute))
	b.put("sim.reuse_ratio", ratio(resets, acquisitions), "ratio", int(acquisitions))
	for _, wl := range asfsim.Workloads() {
		b.put("sim.execute_ms."+wl, median(kernelMs[wl]), "ms", len(kernelMs[wl]))
	}

	// Simulated-design counts and accuracy of the newest complete pass.
	if len(last) >= passCells {
		tail := last[len(last)-passCells:]
		runs := make([]*stats.Run, 0, len(tail))
		for _, r := range tail {
			if r.rec != nil {
				runs = append(runs, r.rec.Run())
			}
		}
		if len(runs) == len(tail) {
			b.putSimCounts(runs, median(execute))
			cells, _ := passRequests(b.seed, tail[0].pass)
			opts := matrixOptions(cells[0].Seed)
			opts.Scale = workloads.ScaleTiny
			fcr, ocr := accuracy(assemble(opts, cells, runs))
			b.put("fcr_sb4_err_pp", fcr, "pp", 1)
			b.put("ocr_sb4_err_pp", ocr, "pp", 1)
		}
	}
	return nil
}

// stageSelfTimes returns, per stage, the summed self time in ms of the
// trace's stage spans: each span's duration minus the part covered by
// other stage spans nested inside it. execute.* spans are phases of the
// execute stage, not children.
func stageSelfTimes(spans []obs.Span) map[string]float64 {
	out := map[string]float64{}
	var stages []obs.Span
	for _, sp := range spans {
		if !strings.Contains(sp.Name, ".") {
			stages = append(stages, sp)
		}
	}
	for i, sp := range stages {
		var kids []obs.Span
		for j, o := range stages {
			if j != i && !o.Start.Before(sp.Start) && !o.End.After(sp.End) && o.Duration() < sp.Duration() {
				kids = append(kids, o)
			}
		}
		out[sp.Name] += ms(sp.Duration() - covered(kids, sp.Start, sp.End))
	}
	return out
}

// covered returns how much of [from, to] the union of spans covers.
func covered(spans []obs.Span, from, to time.Time) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, sp := range spans {
		a, z := sp.Start, sp.End
		if a.Before(from) {
			a = from
		}
		if z.After(to) {
			z = to
		}
		if z.After(a) {
			ivs = append(ivs, iv{a, z})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
