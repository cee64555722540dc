package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	asfsim "repro"
	"repro/internal/harness"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/workloads"
)

// soakSeed fixes the fault schedule. CI pins it via ASFD_SOAK_SEED so a
// red soak reproduces locally from the log line alone.
func soakSeed(t *testing.T) uint64 {
	if v := os.Getenv("ASFD_SOAK_SEED"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("bad ASFD_SOAK_SEED %q: %v", v, err)
		}
		return n
	}
	return 0xC0FFEE
}

// soakCycles scales the kill/restart churn. The default keeps the soak
// inside a few seconds so it can ride in the tier-1 suite; the CI soak
// job raises it via ASFD_SOAK for a longer run under -race.
func soakCycles(t *testing.T) int {
	if v := os.Getenv("ASFD_SOAK"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad ASFD_SOAK %q", v)
		}
		return 3 * n
	}
	return 3
}

// chaosLog opens the chaos event log: ASFD_CHAOS_LOG when set (CI
// uploads it as an artifact on failure), a temp file otherwise.
func chaosLog(t *testing.T) *os.File {
	path := os.Getenv("ASFD_CHAOS_LOG")
	if path == "" {
		path = filepath.Join(t.TempDir(), "chaos.log")
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	t.Logf("chaos log: %s", path)
	return f
}

// assertGoroutinesSettle fails t unless the process goroutine count falls
// back to base within 5s of the last daemon stopping: no worker,
// simulation thread or connection goroutine may outlive the daemon that
// started it. Idle client connections are closed first.
func assertGoroutinesSettle(t *testing.T, base int) {
	t.Helper()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		stacks := make([]byte, 64<<10)
		stacks = stacks[:runtime.Stack(stacks, true)]
		t.Errorf("%d goroutines still running 5s after the last daemon stopped, baseline %d:\n%s", n, base, stacks)
	}
}

type trackedJob struct {
	id      string
	key     string
	durable bool // accepted while journaling was healthy
	settled bool // observed in a terminal state; may be compacted away later
}

// startServer boots one daemon incarnation against the shared journal
// and snapshot paths, wired to the chaos schedule. flush <= 0 disables
// the periodic snapshot flusher for that incarnation (the degraded
// phase does, so the first armed fault lands deterministically on a
// journal append).
func startServer(t *testing.T, dir string, sched *Schedule, flush time.Duration) *service.Server {
	t.Helper()
	s, err := service.New(service.Config{
		Workers:          4,
		QueueDepth:       256,
		SnapshotPath:     filepath.Join(dir, "cache.json"),
		SnapshotInterval: flush,
		JournalPath:      filepath.Join(dir, "journal.wal"),
		JobTimeout:       30 * time.Second,
		FS:               sched.WrapFS(service.OSFS{}),
		BeforeRun:        sched.BeforeRun,
	})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	return s
}

// drain polls until no retained job is queued or running.
func drain(t *testing.T, s *service.Server) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		live := len(s.Jobs(service.JobQueued)) + len(s.Jobs(service.JobRunning))
		if live == 0 && s.QueueDepth() == 0 && s.Running() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("drain timed out: %d queued, %d running", len(s.Jobs(service.JobQueued)), len(s.Jobs(service.JobRunning)))
}

// TestSoakCrashRecovery drives the daemon through the full chaos
// schedule: submission bursts with injected worker panics, cancellation
// storms, in-process kill/restart cycles, and a journal-write-failure
// phase, asserting the durability contract the journal exists to
// provide — every durably accepted job survives every crash and ends in
// exactly one terminal state, done results are byte-identical wherever
// they are observed, injected panics never take the daemon down, and
// disk failures degrade to memory-only mode instead of crashing.
func TestSoakCrashRecovery(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	seed := soakSeed(t)
	cycles := soakCycles(t)
	logf := chaosLog(t)
	sched := NewSchedule(seed, Config{
		PanicRate:        0.15,
		PartialWriteRate: 1.0, // armed only for the degraded-mode phase
	}, logf)
	// Test-local randomness (job mix, cancel storms, kill timing) forks
	// from the same seed so the whole scenario replays deterministically.
	tr := rng.New(seed).Fork(1)

	dir := t.TempDir()
	names := workloads.Names()
	if len(names) > 2 {
		names = names[:2]
	}
	dets := asfsim.Detections
	if len(dets) > 3 {
		dets = dets[:3]
	}

	tracked := make(map[string]*trackedJob) // by job ID
	reference := make(map[string][]byte)    // key -> first observed done bytes
	var kills int

	submitBurst := func(s *service.Server, n int, durable bool, seedBase uint64) {
		for i := 0; i < n; i++ {
			spec := harness.CellSpec{
				Workload:  names[tr.Intn(len(names))],
				Detection: dets[tr.Intn(len(dets))],
				Scale:     workloads.ScaleTiny,
				// A narrow seed range makes repeats (cache hits) common
				// while still exercising distinct cells.
				Seed: seedBase + uint64(tr.Intn(3)),
			}
			job, err := s.Submit(spec)
			if err != nil {
				// Queue-full, draining, and breaker rejections are all
				// legal refusals: the job was never accepted, so the
				// durability contract owes it nothing.
				sched.Logf("submit refused: %v", err)
				continue
			}
			tracked[job.ID] = &trackedJob{id: job.ID, key: job.Key, durable: durable}
		}
	}

	// auditBytes cross-checks every done job the daemon currently knows
	// against the first bytes ever observed for its content address —
	// the "completed exactly once" half of the contract: a cell may be
	// re-executed after a crash, but its observable result must never
	// change.
	auditBytes := func(s *service.Server, phase string) {
		for _, v := range s.Jobs(service.JobDone) {
			view, ok := s.Lookup(v.ID)
			if !ok || view.State != service.JobDone {
				continue
			}
			if len(view.Result) == 0 {
				t.Fatalf("%s: job %s done without result", phase, v.ID)
			}
			if ref, seen := reference[view.Key]; seen {
				if !bytes.Equal(ref, view.Result) {
					t.Fatalf("%s: key %s result diverged across observations (job %s)", phase, view.Key, v.ID)
				}
			} else {
				reference[view.Key] = append([]byte(nil), view.Result...)
			}
		}
	}

	// settle folds the daemon's current view into the tracker. A job
	// observed in a terminal state is settled: journal compaction is
	// allowed to forget it afterwards (its result, if any, lives in the
	// cache snapshot). An unsettled durable job must still be known —
	// if it is not, accepted work was lost, which is the failure the
	// journal exists to prevent.
	settle := func(s *service.Server, phase string) {
		for id, tj := range tracked {
			if tj.settled {
				continue
			}
			view, ok := s.Lookup(id)
			if !ok {
				if tj.durable {
					t.Fatalf("%s: unsettled durable job %s lost", phase, id)
				}
				tj.settled = true // best-effort acceptance; nothing owed
				continue
			}
			switch view.State {
			case service.JobDone, service.JobFailed, service.JobCanceled:
				// Done, reported failed, or canceled: a legal final
				// outcome, observed exactly once per job.
				tj.settled = true
			}
		}
	}

	// checkRecovered asserts a freshly restarted daemon still knows
	// every durably accepted job that had not settled before the crash.
	checkRecovered := func(s *service.Server, phase string) {
		for id, tj := range tracked {
			if !tj.durable || tj.settled {
				continue
			}
			if _, ok := s.Lookup(id); !ok {
				t.Fatalf("%s: durably accepted job %s lost across restart", phase, id)
			}
		}
	}

	// Phase 1: churn cycles. Panics armed, disk healthy; each cycle ends
	// in an in-process crash at a random moment.
	sched.ArmPanics(true)
	for c := 0; c < cycles; c++ {
		sched.Logf("=== churn cycle %d ===", c)
		s := startServer(t, dir, sched, 25*time.Millisecond)
		phase := fmt.Sprintf("cycle %d", c)
		checkRecovered(s, phase)
		// Alternating seed bands give later cycles cache hits on earlier
		// cycles' results (exercising snapshot-served recovery) while
		// still introducing fresh cells.
		submitBurst(s, 12, true, uint64(1+(c%2)*3))

		// Cancellation storm over this incarnation's live jobs.
		for _, v := range s.Jobs(service.JobQueued) {
			if tr.Bool(0.25) {
				s.Cancel(v.ID)
			}
		}
		time.Sleep(time.Duration(5+tr.Intn(40)) * time.Millisecond)
		sched.Logf("kill cycle %d", c)
		s.Kill()
		kills++
		// The killed daemon's tables are frozen; audit what it knew.
		auditBytes(s, phase)
		settle(s, phase)
	}

	// Phase 2: degraded mode. Restart (no flush ticker, so the first
	// armed fault deterministically hits a journal append), then arm
	// filesystem faults — the partial-write rate is 1.0, so that append
	// tears a line and fails. The daemon must fall back to memory-only
	// operation, keep completing work, and stay alive.
	sched.Logf("=== degraded phase ===")
	s := startServer(t, dir, sched, 0)
	checkRecovered(s, "degraded phase")
	sched.ArmFS(true)
	submitBurst(s, 8, false, 1000)
	drain(t, s)
	if deg, reason := s.Degraded(); !deg {
		t.Fatal("degraded phase: daemon did not degrade despite every journal write failing")
	} else {
		sched.Logf("degraded: %s", reason)
	}
	auditBytes(s, "degraded phase")
	settle(s, "degraded phase")
	sched.ArmFS(false)
	sched.Logf("kill degraded")
	s.Kill()
	kills++

	// Phase 3: clean finish. No chaos; the torn line from the degraded
	// phase must be tolerated on replay, every surviving job must reach
	// a terminal state, and done bytes must match every earlier
	// observation.
	sched.Logf("=== final phase ===")
	sched.ArmPanics(false)
	s = startServer(t, dir, sched, 25*time.Millisecond)
	if s.Recovery().Torn == 0 {
		t.Error("final phase: expected a torn journal tail from the degraded phase")
	}
	checkRecovered(s, "final phase")
	drain(t, s)
	auditBytes(s, "final phase")
	settle(s, "final phase")
	for id, tj := range tracked {
		if tj.durable && !tj.settled {
			t.Errorf("final phase: job %s never reached a terminal state", id)
		}
	}
	if err := s.Shutdown(testCtx(t)); err != nil {
		t.Fatalf("final shutdown: %v", err)
	}

	counts := sched.Counts()
	sched.Logf("totals: kills=%d panics=%d partialWrites=%d", kills, counts.Panics, counts.PartialWrites)
	if kills < 4 {
		t.Fatalf("soak performed %d kills, want >= 4", kills)
	}
	if counts.Panics == 0 {
		t.Error("soak injected no worker panics; PanicRate schedule never fired")
	}
	if counts.PartialWrites == 0 {
		t.Error("soak injected no journal write faults")
	}
	if len(reference) == 0 {
		t.Error("soak observed no completed results")
	}
	assertGoroutinesSettle(t, baseGoroutines)
}

// TestPanicIsolation pins the barrier property on its own: a panicking
// cell fails that job with a structured error record and a metrics
// count, and the daemon keeps serving.
func TestPanicIsolation(t *testing.T) {
	panics := 0
	s, err := service.New(service.Config{
		Workers:    2,
		QueueDepth: 16,
		BeforeRun: func(spec harness.CellSpec) {
			if panics == 0 {
				panics++
				panic("chaos: deliberate panic")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(testCtx(t))

	spec := harness.CellSpec{Workload: workloads.Names()[0], Scale: workloads.ScaleTiny, Seed: 7}
	job, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done
	view, _ := s.Lookup(job.ID)
	if view.State != service.JobFailed || view.ErrorKind != "panic" {
		t.Fatalf("panicked job: state=%s kind=%s err=%q", view.State, view.ErrorKind, view.Error)
	}
	if s.Metrics().WorkerPanics() != 1 {
		t.Fatalf("workerPanics = %d, want 1", s.Metrics().WorkerPanics())
	}

	// The daemon is still fully functional: the same cell, resubmitted,
	// now runs clean and completes.
	job2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-job2.Done
	if view, _ := s.Lookup(job2.ID); view.State != service.JobDone {
		t.Fatalf("post-panic resubmission: state=%s err=%q", view.State, view.Error)
	}
	var rec json.RawMessage
	if view, _ := s.Lookup(job2.ID); json.Unmarshal(view.Result, &rec) != nil {
		t.Fatal("post-panic result is not valid JSON")
	}
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}
