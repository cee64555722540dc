package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	asfsim "repro"
	"repro/internal/backoff"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/workloads"
)

// fastOpts keeps retry timing out of the test budget: millisecond
// backoff, pinned jitter seed.
func fastOpts() Options {
	return Options{
		MaxAttempts:  4,
		Backoff:      backoff.Config{BaseCycles: 1, MaxCycles: 4, Jitter: 0},
		PollInterval: 2 * time.Millisecond,
		Seed:         1,
	}
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestClientEndToEnd drives a real daemon: RunCell returns the decoded
// record, and a repeat of the same cell is served from the cache.
func TestClientEndToEnd(t *testing.T) {
	s, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Kill()

	c := New(ts.URL, fastOpts())
	ctx := testCtx(t)
	req := service.JobRequest{Workload: "kmeans", Detection: "subblock-4", Scale: "tiny"}

	rec, err := c.RunCell(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Workload != "kmeans" || rec.Cycles == 0 {
		t.Fatalf("record looks empty: workload=%q cycles=%d", rec.Workload, rec.Cycles)
	}

	if _, err := c.RunCell(ctx, req); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.CacheHits == 0 || snap.RunsExecuted != 1 {
		t.Fatalf("repeat cell was not cache-served: hits=%d runs=%d", snap.CacheHits, snap.RunsExecuted)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Degraded {
		t.Fatalf("health: %+v", h)
	}
}

// TestRunCellHitCostsOneRequest counts the HTTP requests RunCell makes: a
// miss submits and polls, a cache hit is settled by the submit response
// alone.
func TestRunCellHitCostsOneRequest(t *testing.T) {
	var requests atomic.Int64
	// The miss starts executing only once its first poll has arrived, so
	// it is never already settled in its submit response.
	s, err := service.New(service.Config{Workers: 1, BeforeRun: func(harness.CellSpec) {
		for requests.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	defer s.Kill()

	c := New(ts.URL, fastOpts())
	req := service.JobRequest{Workload: "kmeans", Detection: "subblock-4", Scale: "tiny"}
	if _, err := c.RunCell(testCtx(t), req); err != nil {
		t.Fatal(err)
	}
	miss := requests.Load()
	if miss < 2 {
		t.Fatalf("a miss cost %d requests, want a submit plus at least one poll", miss)
	}
	if _, err := c.RunCell(testCtx(t), req); err != nil {
		t.Fatal(err)
	}
	if hit := requests.Load() - miss; hit != 1 {
		t.Fatalf("a cache hit cost %d requests, want 1", hit)
	}
}

func TestClientRetries429(t *testing.T) {
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.NotFound(w, r)
			return
		}
		if posts.Add(1) < 3 {
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"queue full"}`)
			return
		}
		json.NewEncoder(w).Encode(service.SubmitResponse{Jobs: []service.JobView{{
			ID: "job-000000", State: service.JobDone, Result: json.RawMessage(`{}`),
		}}})
	}))
	defer ts.Close()

	view, err := New(ts.URL, fastOpts()).Submit(testCtx(t), service.JobRequest{Workload: "kmeans"})
	if err != nil {
		t.Fatal(err)
	}
	if view.ID != "job-000000" || posts.Load() != 3 {
		t.Fatalf("view %+v after %d posts, want job-000000 after 3", view, posts.Load())
	}
}

// TestClientDoesNotRetry4xx: validation errors come straight back as
// *APIError without burning retry attempts.
func TestClientDoesNotRetry4xx(t *testing.T) {
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"unknown workload"}`)
	}))
	defer ts.Close()

	_, err := New(ts.URL, fastOpts()).Submit(testCtx(t), service.JobRequest{Workload: "nope"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want APIError 400", err)
	}
	if posts.Load() != 1 {
		t.Fatalf("400 was retried %d times", posts.Load()-1)
	}
}

// TestClientUnknownJob: a 404 poll surfaces as ErrUnknownJob.
func TestClientUnknownJob(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"unknown job"}`)
	}))
	defer ts.Close()

	_, err := New(ts.URL, fastOpts()).Job(testCtx(t), "job-000042")
	if !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
}

// TestRunCellResubmitsAfterRestart models the crash the client exists
// for: the daemon accepts a job, "restarts" (forgetting the ID), and the
// client resubmits the cell instead of failing the matrix.
func TestRunCellResubmitsAfterRestart(t *testing.T) {
	var posts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			n := posts.Add(1)
			state := service.JobQueued
			var result json.RawMessage
			if n > 1 { // the "restarted" daemon serves the cell from cache
				state = service.JobDone
				result = json.RawMessage(`{"workload":"kmeans"}`)
			}
			json.NewEncoder(w).Encode(service.SubmitResponse{Jobs: []service.JobView{{
				ID: fmt.Sprintf("job-%06d", n-1), State: state, Result: result, CacheHit: n > 1,
			}}})
		case r.URL.Path == "/v1/jobs/job-000000": // pre-restart ID: forgotten
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"unknown job"}`)
		default:
			json.NewEncoder(w).Encode(service.JobView{
				ID: "job-000001", State: service.JobDone,
				Result: json.RawMessage(`{"workload":"kmeans"}`),
			})
		}
	}))
	defer ts.Close()

	rec, err := New(ts.URL, fastOpts()).RunCell(testCtx(t), service.JobRequest{Workload: "kmeans"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Workload != "kmeans" || posts.Load() != 2 {
		t.Fatalf("record %+v after %d submissions, want kmeans after 2", rec, posts.Load())
	}
}

// TestRunCellReportsFailure: a job that ends "failed" carries the
// daemon's structured error kind in the client error.
func TestRunCellReportsFailure(t *testing.T) {
	failed := service.JobView{
		ID: "job-000000", State: service.JobFailed,
		Error: "panic during cell execution: boom", ErrorKind: "panic",
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			json.NewEncoder(w).Encode(service.SubmitResponse{Jobs: []service.JobView{failed}})
			return
		}
		json.NewEncoder(w).Encode(failed)
	}))
	defer ts.Close()

	_, err := New(ts.URL, fastOpts()).RunCell(testCtx(t), service.JobRequest{Workload: "kmeans"})
	if err == nil {
		t.Fatal("failed job returned no error")
	}
	for _, want := range []string{"panic", "boom"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestCollectMatrixMatchesLocal is the client's figure-fidelity claim:
// a matrix collected through the daemon renders the same figure text as
// harness.Collect running in-process, because the daemon executes the
// same deterministic cells.
func TestCollectMatrixMatchesLocal(t *testing.T) {
	s, err := service.New(service.Config{Workers: 4, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Kill()

	opts := harness.Options{
		Scale:     workloads.ScaleTiny,
		Seeds:     []uint64{1, 2},
		Cores:     8,
		Workloads: []string{"kmeans", "genome"},
	}
	dets := []asfsim.Detection{asfsim.DetectBaseline, asfsim.DetectSubBlock4}

	local, err := harness.Collect(opts, dets)
	if err != nil {
		t.Fatal(err)
	}
	served, err := New(ts.URL, fastOpts()).CollectMatrix(testCtx(t), opts, dets)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := served.Fig1(), local.Fig1(); got != want {
		t.Fatalf("served Fig1 differs from local:\n--- served ---\n%s\n--- local ---\n%s", got, want)
	}
	if got, want := served.Fig8(), local.Fig8(); got != want {
		t.Fatal("served Fig8 differs from local")
	}
}
