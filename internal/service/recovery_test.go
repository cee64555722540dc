package service

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
	"time"

	asfsim "repro"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// recoverySpecs is the 8-cell matrix the crash-recovery test runs:
// 2 workloads x 2 detections x 2 seeds at tiny scale.
func recoverySpecs() []harness.CellSpec {
	var specs []harness.CellSpec
	for _, wl := range []string{"kmeans", "genome"} {
		for _, det := range []asfsim.Detection{asfsim.DetectBaseline, asfsim.DetectSubBlock4} {
			for seed := uint64(1); seed <= 2; seed++ {
				specs = append(specs, harness.CellSpec{
					Workload: wl, Detection: det, Scale: workloads.ScaleTiny, Seed: seed,
				})
			}
		}
	}
	return specs
}

func waitTerminalDirect(t *testing.T, s *Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := s.Lookup(id); ok && v.State.terminal() {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobView{}
}

// TestCrashRecoveryEndToEnd is the tentpole durability claim: a daemon
// killed mid-matrix loses nothing. Every job it accepted is replayed
// from the journal on restart, re-runs to done, and the results are
// byte-identical to an uninterrupted run of the same matrix — and a
// subsequent resubmission of the full matrix is served entirely from
// cache, executing zero additional simulated cycles.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	specs := recoverySpecs()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Reference: the same matrix on a journal-less daemon, uninterrupted.
	ref := make(map[string][]byte)
	refSrv, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		job, err := refSrv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		view := waitTerminalDirect(t, refSrv, job.ID)
		if view.State != JobDone {
			t.Fatalf("reference %s/%v/seed %d ended %s (%s)", spec.Workload, spec.Detection, spec.Seed, view.State, view.Error)
		}
		ref[view.Key] = view.Result
	}
	if err := refSrv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(specs) {
		t.Fatalf("reference produced %d distinct keys for %d specs", len(ref), len(specs))
	}

	// Incarnation 1: submit the matrix, then die mid-run without any
	// graceful persistence (Kill models SIGKILL: no snapshot, no
	// journaled cancellations).
	dir := t.TempDir()
	cfg := Config{
		Workers:      2,
		QueueDepth:   64,
		SnapshotPath: filepath.Join(dir, "cache.json"),
		JournalPath:  filepath.Join(dir, "journal.wal"),
	}
	crash, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, spec := range specs {
		job, err := crash.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	time.Sleep(3 * time.Millisecond) // let some jobs start or even finish
	crash.Kill()

	// Incarnation 2: same journal, same snapshot path.
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()

	rec := s.Recovery()
	if rec.Replayed != len(specs) {
		t.Fatalf("replayed %d jobs, want %d (stats %+v)", rec.Replayed, len(specs), rec)
	}
	if rec.Reenqueued == 0 {
		t.Fatalf("nothing was re-enqueued after a mid-run crash (stats %+v)", rec)
	}

	// Every job ID accepted before the crash is known to the restarted
	// daemon and runs to done with the reference bytes.
	got := make(map[string][]byte)
	for _, id := range ids {
		if _, ok := s.Lookup(id); !ok {
			t.Fatalf("job %s accepted before the crash is unknown after restart", id)
		}
		view := waitTerminalDirect(t, s, id)
		if view.State != JobDone {
			t.Fatalf("recovered job %s ended %s (%s)", id, view.State, view.Error)
		}
		want, ok := ref[view.Key]
		if !ok {
			t.Fatalf("recovered job %s has unexpected key %s", id, view.Key)
		}
		if !bytes.Equal(view.Result, want) {
			t.Fatalf("recovered job %s result differs from the uninterrupted run", id)
		}
		got[view.Key] = view.Result
	}
	if len(got) != len(ref) {
		t.Fatalf("recovery covered %d keys, reference has %d", len(got), len(ref))
	}

	// Resubmitting the identical matrix must be pure cache service:
	// zero additional simulated cycles.
	cycles := s.Metrics().SimCyclesExecuted()
	for _, spec := range specs {
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		view := waitTerminalDirect(t, s, job.ID)
		if view.State != JobDone || !view.CacheHit {
			t.Fatalf("resubmitted cell %s: state %s cacheHit %v", job.ID, view.State, view.CacheHit)
		}
	}
	if after := s.Metrics().SimCyclesExecuted(); after != cycles {
		t.Fatalf("resubmission simulated %d duplicate cycles", after-cycles)
	}
}

// TestRecoveryAfterCleanShutdown: a graceful shutdown compacts the
// journal against the snapshot, so the next boot replays nothing and
// still serves the whole matrix from cache.
func TestRecoveryAfterCleanShutdown(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	dir := t.TempDir()
	cfg := Config{
		Workers:      2,
		SnapshotPath: filepath.Join(dir, "cache.json"),
		JournalPath:  filepath.Join(dir, "journal.wal"),
	}

	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		job, err := first.Submit(harness.CellSpec{
			Workload: "kmeans", Detection: asfsim.DetectSubBlock4, Scale: workloads.ScaleTiny, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if v := waitTerminalDirect(t, first, job.ID); v.State != JobDone {
			t.Fatalf("seed %d ended %s (%s)", seed, v.State, v.Error)
		}
	}
	if err := first.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	second, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Shutdown(ctx)
	if rec := second.Recovery(); rec.Reenqueued != 0 || rec.Torn != 0 {
		t.Fatalf("clean shutdown left work to recover: %+v", rec)
	}
	job, err := second.Submit(harness.CellSpec{
		Workload: "kmeans", Detection: asfsim.DetectSubBlock4, Scale: workloads.ScaleTiny, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitTerminalDirect(t, second, job.ID); !v.CacheHit {
		t.Fatal("snapshotted cell was re-simulated after a clean restart")
	}
	if second.Metrics().SimCyclesExecuted() != 0 {
		t.Fatal("restarted daemon executed cycles for snapshotted cells")
	}
}

// TestCrashServesDoneFromJournal: cells that finished after the last
// snapshot are not re-run after a crash. Their done records carry the
// results, replay settles them into the cache, and the boot writes them
// to the snapshot before compacting the journal, so a second crash
// keeps them too.
func TestCrashServesDoneFromJournal(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers:      2,
		SnapshotPath: filepath.Join(dir, "cache.json"),
		JournalPath:  filepath.Join(dir, "journal.wal"),
	}
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte)
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		job, err := first.Submit(harness.CellSpec{
			Workload: "kmeans", Detection: asfsim.DetectSubBlock4, Scale: workloads.ScaleTiny, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		v := waitTerminalDirect(t, first, job.ID)
		if v.State != JobDone {
			t.Fatalf("seed %d ended %s (%s)", seed, v.State, v.Error)
		}
		want[v.ID] = v.Result
		ids = append(ids, v.ID)
	}
	first.Kill() // no snapshot was ever written

	second, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec := second.Recovery(); rec.FromCache != len(ids) || rec.Reenqueued != 0 {
		t.Fatalf("recovery = %+v, want all %d jobs settled from the journal", rec, len(ids))
	}
	for _, id := range ids {
		v := waitTerminalDirect(t, second, id)
		if v.State != JobDone || !bytes.Equal(v.Result, want[id]) {
			t.Fatalf("job %s after restart: state %s, result identical %v", id, v.State, bytes.Equal(v.Result, want[id]))
		}
	}
	if n := second.Metrics().SimCyclesExecuted(); n != 0 {
		t.Fatalf("restart re-simulated %d cycles of finished cells", n)
	}
	second.Kill()

	third, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer third.Kill()
	if n := third.Cache().Len(); n != len(ids) {
		t.Fatalf("after a second crash the cache holds %d entries, want %d", n, len(ids))
	}
}

// TestJournalingDisabledMatchesPR3Behavior: with no JournalPath the
// daemon takes the exact pre-journal code paths — no journal file, no
// recovery stats, no journal records counted — and still serves cells.
func TestJournalingDisabledMatchesPR3Behavior(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	_, sr := postJob(t, ts, `{"workload":"kmeans","detection":"baseline","scale":"tiny"}`)
	if len(sr.Jobs) != 1 {
		t.Fatal("submission rejected")
	}
	if v := waitDone(t, ts, sr.Jobs[0].ID); v.State != JobDone {
		t.Fatalf("job ended %s", v.State)
	}
	if rec := s.Recovery(); rec != (RecoveryStats{}) {
		t.Fatalf("journal-less daemon reports recovery stats: %+v", rec)
	}
	if snap := getMetrics(t, ts); snap.JournalRecords != 0 || snap.JournalRotations != 0 {
		t.Fatalf("journal-less daemon counted journal activity: records=%d rotations=%d",
			snap.JournalRecords, snap.JournalRotations)
	}
}
