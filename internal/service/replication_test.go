package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	asfsim "repro"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// fetchBatch pulls one replication batch from a primary's stream
// endpoint, the way a follower's sync loop does.
func fetchBatch(t *testing.T, ts *httptest.Server, from uint64, extra string) ReplBatch {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/replication/stream?from=" + uitoa(from) + extra)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ReadReplBatch(resp)
	if err != nil {
		t.Fatal(err)
	}
	return batch
}

func uitoa(n uint64) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// fetchSnapshot pulls the primary's bootstrap batch.
func fetchSnapshot(t *testing.T, ts *httptest.Server) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/replication/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ReadReplBatch(resp)
	if err != nil {
		t.Fatal(err)
	}
	return batch.Frames
}

// decodeBatch decodes frame lines that must all verify.
func decodeBatch(t *testing.T, body []byte) []journalRecord {
	t.Helper()
	recs, err := decodeFrames(body)
	if err != nil {
		t.Fatalf("batch failed verification after HTTP round trip: %v", err)
	}
	return recs
}

// encodeBatch frames recs back into a batch body, as a lying proxy that
// re-frames what it tampered with would.
func encodeBatch(t *testing.T, recs []journalRecord) []byte {
	t.Helper()
	var body []byte
	for _, rec := range recs {
		body = mustFrame(t, rec).appendTo(body)
	}
	return body
}

// withFlippedResult returns a copy of recs whose first done record has
// one result byte flipped (its digest left as recorded), and that
// record's index.
func withFlippedResult(t *testing.T, recs []journalRecord) ([]journalRecord, int) {
	t.Helper()
	out := append([]journalRecord(nil), recs...)
	for i, rec := range out {
		if rec.Op == opDone && len(rec.Result) > 0 {
			res := bytes.Clone(rec.Result)
			res[len(res)/2] ^= 0x01
			out[i].Result = res
			return out, i
		}
	}
	t.Fatal("no done record carries a result")
	return nil, 0
}

// TestReplicationStreamAndApply is the warm-standby happy path, run
// through the real HTTP surface: a primary executes a job, a follower
// pulls the frame batch off the wire, verifies every CRC and content
// digest, and ends up with the job settled and the result bytes
// byte-identical — without simulating a single cycle itself.
func TestReplicationStreamAndApply(t *testing.T) {
	_, primaryTS := newTestServer(t, Config{Workers: 2})
	_, sr := postJob(t, primaryTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny"}`)
	if len(sr.Jobs) != 1 {
		t.Fatalf("accepted %d jobs, want 1", len(sr.Jobs))
	}
	primaryView := waitDone(t, primaryTS, sr.Jobs[0].ID)
	if primaryView.State != JobDone {
		t.Fatalf("primary job ended %s", primaryView.State)
	}

	batch := fetchBatch(t, primaryTS, 1, "")
	if len(batch.Frames) == 0 || batch.SnapshotNeeded {
		t.Fatalf("expected frames, got %+v", batch)
	}
	recs := decodeBatch(t, batch.Frames)

	follower, followerTS := newTestServer(t, Config{Workers: 2, Following: true})
	if !follower.Following() {
		t.Fatal("follower does not report Following")
	}
	applied, err := follower.ApplyReplicatedBatch(batch)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if applied != len(recs) {
		t.Fatalf("applied %d of %d frames", applied, len(recs))
	}
	if lag := follower.ReplicationLag(); lag != 0 {
		t.Fatalf("lag after full apply = %d, want 0", lag)
	}

	// The follower serves the settled job — same ID, same bytes.
	code, view := getJob(t, followerTS, sr.Jobs[0].ID)
	if code != http.StatusOK || view.State != JobDone {
		t.Fatalf("follower job: status %d state %s", code, view.State)
	}
	if !bytes.Equal(view.Result, primaryView.Result) {
		t.Fatal("replicated result bytes differ from the primary's")
	}
	// And executed nothing to get there.
	fm := getMetrics(t, followerTS)
	if fm.RunsExecuted != 0 || fm.SimCyclesExecuted != 0 {
		t.Fatalf("follower executed work: runs=%d cycles=%d", fm.RunsExecuted, fm.SimCyclesExecuted)
	}
	if fm.ReplFramesApplied != uint64(applied) {
		t.Fatalf("replFramesApplied = %d, want %d", fm.ReplFramesApplied, applied)
	}
	if fm.Role != "follower" {
		t.Fatalf("follower metrics role = %q", fm.Role)
	}

	// Applying the same batch again is an idempotent no-op.
	again, err := follower.ApplyReplicatedBatch(batch)
	if err != nil || again != 0 {
		t.Fatalf("re-apply: applied=%d err=%v", again, err)
	}

	h := follower.Health()
	if h.Role != "follower" || h.Status != "following" {
		t.Fatalf("follower health = %+v", h)
	}
}

// TestReplicationLogSharesResultBytes: the replication log holds no
// second copy of a settled result — the done frame's result bytes are
// the cache entry's own.
func TestReplicationLogSharesResultBytes(t *testing.T) {
	primary, primaryTS := newTestServer(t, Config{Workers: 1})
	_, sr := postJob(t, primaryTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny"}`)
	waitDone(t, primaryTS, sr.Jobs[0].ID)
	e, ok := primary.cache.peek(sr.Jobs[0].Key)
	if !ok {
		t.Fatal("result not cached")
	}
	frames, _, _, _ := primary.repl.fetch(1, 100)
	shared := 0
	for _, f := range frames {
		if f.result != nil {
			if &f.result[0] != &e.Result[0] {
				t.Fatal("a done frame holds its own copy of the result bytes")
			}
			shared++
		}
	}
	if shared != 1 {
		t.Fatalf("%d done frames carry the result, want 1", shared)
	}
}

// TestReplicationCorruptionRefused: any flipped bit in a frame — in the
// record or in the result bytes it carries — is detected and counted. A
// CRC failure refuses the whole batch before anything is applied; a
// re-framed record whose result fails its digest stops the batch at that
// frame, and the poisoned result never reaches the cache.
func TestReplicationCorruptionRefused(t *testing.T) {
	_, primaryTS := newTestServer(t, Config{Workers: 2})
	_, sr := postJob(t, primaryTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny"}`)
	waitDone(t, primaryTS, sr.Jobs[0].ID)
	batch := fetchBatch(t, primaryTS, 1, "")

	follower, _ := newTestServer(t, Config{Workers: 1, Following: true})
	before := follower.ReplNextApply()

	// CRC corruption: flip a bit in the first frame without restamping.
	bad := ReplBatch{Frames: bytes.Clone(batch.Frames), NextSeq: batch.NextSeq}
	bad.Frames[20] ^= 0x01
	if _, err := follower.ApplyReplicatedBatch(bad); !errors.Is(err, ErrReplCorrupt) {
		t.Fatalf("corrupt frame applied: %v", err)
	}
	if follower.metrics.ReplCorruptFrames() == 0 {
		t.Fatal("corrupt frame not counted")
	}
	if follower.ReplNextApply() != before {
		t.Fatal("a batch refused by CRC advanced the apply cursor")
	}

	// Digest corruption: flip a byte in a done record's result bytes and
	// re-frame it, as a lying proxy that re-frames would.
	recs, withEntry := withFlippedResult(t, decodeBatch(t, batch.Frames))
	bad2 := ReplBatch{Frames: encodeBatch(t, recs), NextSeq: batch.NextSeq}
	if _, err := follower.ApplyReplicatedBatch(bad2); !errors.Is(err, ErrReplCorrupt) {
		t.Fatalf("digest-mismatched entry applied: %v", err)
	}
	if follower.metrics.ReplDigestMismatches() == 0 {
		t.Fatal("digest mismatch not counted")
	}

	// The cursor stopped at the poisoned frame, whose result never
	// reached the follower's cache.
	if got := follower.ReplNextApply(); got != recs[withEntry].Seq {
		t.Fatalf("apply cursor = %d, want %d (the refused frame)", got, recs[withEntry].Seq)
	}
	if _, ok := follower.cache.peek(recs[withEntry].Key); ok {
		t.Fatal("corrupt entry reached the follower cache")
	}
}

// TestReplicationGapAndSnapshotResync: a follower whose cursor has been
// trimmed out of the primary's bounded log is told to re-sync, and the
// snapshot checkpoint carries everything it needs — digest-verified.
func TestReplicationGapAndSnapshotResync(t *testing.T) {
	// A tiny log window forces trimming almost immediately.
	primary, primaryTS := newTestServer(t, Config{Workers: 2, ReplLogCapacity: 2})
	for i := 0; i < 3; i++ {
		_, sr := postJob(t, primaryTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":`+uitoa(uint64(i+1))+`}`)
		waitDone(t, primaryTS, sr.Jobs[0].ID)
	}
	if primary.repl.nextSeq() <= 3 {
		t.Fatalf("expected >2 replicated records, nextSeq=%d", primary.repl.nextSeq())
	}

	batch := fetchBatch(t, primaryTS, 1, "")
	if !batch.SnapshotNeeded {
		t.Fatalf("trimmed log did not demand a snapshot: %+v", batch)
	}

	follower, _ := newTestServer(t, Config{Workers: 1, Following: true})
	if _, err := follower.ApplyReplicatedBatch(batch); !errors.Is(err, ErrReplGap) {
		t.Fatalf("SnapshotNeeded batch did not surface ErrReplGap: %v", err)
	}
	// The gap still taught the follower how far behind it is.
	if follower.ReplicationLag() == 0 {
		t.Fatal("lag not recorded from the gap response")
	}

	snap := fetchSnapshot(t, primaryTS)
	recs := decodeBatch(t, snap)
	entries := 0
	for _, rec := range recs {
		if rec.Op == opDone {
			entries++
		}
	}
	checkpoint := recs[len(recs)-1]
	if checkpoint.Op != opCheckpoint {
		t.Fatalf("bootstrap batch does not end in a checkpoint: %+v", checkpoint)
	}
	applied, err := follower.ApplyReplicatedBootstrap(snap)
	if err != nil {
		t.Fatalf("apply snapshot: %v", err)
	}
	if applied != entries || applied == 0 {
		t.Fatalf("applied %d of %d snapshot entries", applied, entries)
	}
	if follower.ReplNextApply() != checkpoint.Seq {
		t.Fatalf("resume cursor = %d, want %d", follower.ReplNextApply(), checkpoint.Seq)
	}

	// Streaming resumes cleanly from the snapshot's cursor.
	tail := fetchBatch(t, primaryTS, follower.ReplNextApply(), "")
	if tail.SnapshotNeeded {
		t.Fatal("post-snapshot cursor is still out of window")
	}
	if _, err := follower.ApplyReplicatedBatch(tail); err != nil {
		t.Fatalf("apply tail: %v", err)
	}
	if follower.ReplicationLag() != 0 {
		t.Fatalf("lag after re-sync = %d", follower.ReplicationLag())
	}

	// A tampered snapshot is refused: a re-framed result that fails its
	// digest, and a batch cut off before its closing checkpoint.
	tampered, _ := withFlippedResult(t, decodeBatch(t, fetchSnapshot(t, primaryTS)))
	if _, err := follower.ApplyReplicatedBootstrap(encodeBatch(t, tampered)); !errors.Is(err, ErrReplCorrupt) {
		t.Fatalf("tampered snapshot applied: %v", err)
	}
	cut := decodeBatch(t, fetchSnapshot(t, primaryTS))
	if _, err := follower.ApplyReplicatedBootstrap(encodeBatch(t, cut[:len(cut)-1])); !errors.Is(err, ErrReplCorrupt) {
		t.Fatalf("snapshot without its checkpoint applied: %v", err)
	}
}

// TestReplicationPartialBatchLag: a follower that applies only part of
// the primary's log reports the remainder as lag, and a mid-stream gap
// is refused.
func TestReplicationPartialBatchLag(t *testing.T) {
	_, primaryTS := newTestServer(t, Config{Workers: 2})
	_, sr := postJob(t, primaryTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny"}`)
	waitDone(t, primaryTS, sr.Jobs[0].ID)

	full := fetchBatch(t, primaryTS, 1, "")
	fullRecs := decodeBatch(t, full.Frames)
	if len(fullRecs) < 2 {
		t.Fatalf("need >=2 frames, got %d", len(fullRecs))
	}
	one := fetchBatch(t, primaryTS, 1, "&max=1")
	if n := len(decodeBatch(t, one.Frames)); n != 1 {
		t.Fatalf("max=1 returned %d frames", n)
	}

	follower, _ := newTestServer(t, Config{Workers: 1, Following: true})
	if _, err := follower.ApplyReplicatedBatch(one); err != nil {
		t.Fatal(err)
	}
	wantLag := int64(len(fullRecs) - 1)
	if lag := follower.ReplicationLag(); lag != wantLag {
		t.Fatalf("lag = %d, want %d", lag, wantLag)
	}
	h := follower.Health()
	if h.ReplicaLagRecords != wantLag {
		t.Fatalf("health lag = %d, want %d", h.ReplicaLagRecords, wantLag)
	}

	// Skipping ahead (a hole in the stream) is a gap, not silently applied.
	gap := ReplBatch{Frames: encodeBatch(t, fullRecs[len(fullRecs)-1:]), NextSeq: full.NextSeq}
	if _, err := follower.ApplyReplicatedBatch(gap); !errors.Is(err, ErrReplGap) {
		t.Fatalf("mid-stream hole applied: %v", err)
	}
}

// TestFollowerRejectsSubmissions: a warm standby refuses work with the
// standard retryable 503 envelope and advertises its role on every
// response, so a pool client fails over without guesswork.
func TestFollowerRejectsSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Following: true})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"workload":"kmeans","detection":"subblock-4","scale":"tiny"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower submission: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if got := resp.Header.Get("X-ASF-Role"); got != "follower" {
		t.Fatalf("X-ASF-Role = %q, want follower", got)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
		t.Fatalf("503 body not the structured envelope: %v %+v", err, er)
	}
}

// TestPromotionDisposesPendingCorrectly is the promotion contract in one
// scene: settled keys complete from replicated bytes (zero duplicate
// cycles), deadline-expired pending jobs are shed without ever
// executing, and live pending jobs re-enqueue and run to completion.
func TestPromotionDisposesPendingCorrectly(t *testing.T) {
	// Build the replicated history by hand via a primary-side log, so the
	// frames carry real CRCs.
	spec1 := harness.CellSpec{
		Workload:  "kmeans",
		Detection: asfsim.DetectSubBlock4,
		Scale:     workloads.ScaleTiny,
		Seed:      1,
	}.Normalize()
	cell1 := encodeCell(spec1)
	_, cell2 := testCell(t, 2)
	_, cell3 := testCell(t, 3)
	key1 := Key(spec1)

	// Settle key1 on a real primary to get genuine result bytes + digest.
	primary, primaryTS := newTestServer(t, Config{Workers: 2})
	_, sr := postJob(t, primaryTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":1}`)
	if sr.Jobs[0].Key != key1 {
		t.Fatalf("submitted key %s != locally derived %s", sr.Jobs[0].Key, key1)
	}
	waitDone(t, primaryTS, sr.Jobs[0].ID)
	entry, ok := primary.cache.peek(key1)
	if !ok {
		t.Fatalf("primary cache has no entry for %s", key1)
	}

	log := newReplLog(0)
	for _, rec := range []journalRecord{
		// job-000100: submitted then done — terminal, its entry settles key1.
		{Op: opSubmitted, ID: "job-000100", Key: key1, Cell: &cell1},
		doneRecord("job-000100", entry),
		// job-000101: pending on the already-settled key1 -> fromCache.
		{Op: opSubmitted, ID: "job-000101", Key: key1, Cell: &cell1},
		// job-000102: pending with a long-expired propagated deadline -> shed.
		{Op: opSubmitted, ID: "job-000102", Key: Key(cellSpec(t, cell2)), Cell: &cell2,
			Deadline: "2020-01-01T00:00:00Z"},
		// job-000103: pending, live -> re-enqueued and executed.
		{Op: opSubmitted, ID: "job-000103", Key: Key(cellSpec(t, cell3)), Cell: &cell3},
	} {
		if _, err := log.append(rec); err != nil {
			t.Fatal(err)
		}
	}

	frames, _, next, _ := log.fetch(1, 100)
	var body []byte
	for _, f := range frames {
		body = f.appendTo(body)
	}
	follower, followerTS := newTestServer(t, Config{Workers: 2, Following: true})
	if _, err := follower.ApplyReplicatedBatch(ReplBatch{Frames: body, NextSeq: next}); err != nil {
		t.Fatal(err)
	}

	st, err := follower.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if st.FromCache != 1 || st.Shed != 1 || st.Reenqueued != 1 {
		t.Fatalf("promote stats = %+v, want 1/1/1", st)
	}
	if follower.Following() {
		t.Fatal("still following after Promote")
	}

	// fromCache job: done, byte-identical to the primary's result, and
	// the promoted node simulated nothing for it.
	code, v := getJob(t, followerTS, "job-000101")
	if code != http.StatusOK || v.State != JobDone || !v.CacheHit {
		t.Fatalf("fromCache job: %d %s cacheHit=%v", code, v.State, v.CacheHit)
	}
	// The job endpoint re-indents the envelope, so compare compacted.
	var got, want bytes.Buffer
	if err := json.Compact(&got, v.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&want, entry.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("fromCache result differs from replicated bytes")
	}

	// Shed job: canceled without execution (satellite: deadline-expired
	// replicated jobs must be shed, not run).
	_, v = getJob(t, followerTS, "job-000102")
	if v.State != JobCanceled {
		t.Fatalf("expired pending job ended %s, want canceled", v.State)
	}

	// Re-enqueued job runs to completion on the promoted node.
	v = waitDone(t, followerTS, "job-000103")
	if v.State != JobDone {
		t.Fatalf("re-enqueued job ended %s (%s)", v.State, v.Error)
	}

	m := getMetrics(t, followerTS)
	if m.Promotions != 1 || m.PromotedFromCache != 1 || m.PromotedShed != 1 || m.PromotedReenqueued != 1 {
		t.Fatalf("promotion counters: %+v", m)
	}
	if m.ShedExpired == 0 {
		t.Fatal("shed job not counted as shedExpired")
	}
	// Exactly one execution: the re-enqueued job. The settled key cost
	// zero additional cycles.
	if m.RunsExecuted != 1 {
		t.Fatalf("promoted node executed %d runs, want 1", m.RunsExecuted)
	}
	if m.Role != "primary" {
		t.Fatalf("promoted node role = %q", m.Role)
	}

	// The promoted node accepts fresh submissions, and its IDs do not
	// collide with replicated ones.
	_, sr2 := postJob(t, followerTS, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":9}`)
	if len(sr2.Jobs) != 1 {
		t.Fatalf("post-promotion submission rejected: %+v", sr2)
	}
	if sr2.Jobs[0].ID <= "job-000103" {
		t.Fatalf("post-promotion ID %s collides with replicated range", sr2.Jobs[0].ID)
	}
	waitDone(t, followerTS, sr2.Jobs[0].ID)

	// Promoting twice — or promoting a primary — is a 409.
	resp, err := http.Post(followerTS.URL+"/v1/replication/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second promote: status %d, want 409", resp.StatusCode)
	}
}

func cellSpec(t *testing.T, cell canonicalCell) harness.CellSpec {
	t.Helper()
	s, err := cell.spec()
	if err != nil {
		t.Fatal(err)
	}
	return s.Normalize()
}

// TestPromoteViaHTTP exercises the promote endpoint itself.
func TestPromoteViaHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Following: true})
	resp, err := http.Post(ts.URL+"/v1/replication/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	var st PromoteStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	// An idle standby has nothing pending.
	if st.FromCache != 0 || st.Reenqueued != 0 || st.Shed != 0 {
		t.Fatalf("idle promote stats: %+v", st)
	}
	// Now a primary: accepts work.
	_, sr := postJob(t, ts, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny"}`)
	if len(sr.Jobs) != 1 {
		t.Fatalf("promoted daemon rejected submission: %+v", sr)
	}
	waitDone(t, ts, sr.Jobs[0].ID)
}

// TestReplicationLongPollWakes: a stream request parked with ?wait= is
// woken by the next replicated record rather than sleeping the full
// window.
func TestReplicationLongPollWakes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	got := make(chan ReplBatch, 1)
	go func() {
		// Park for up to 20s; the submission below must wake it long before.
		got <- fetchBatch(t, ts, 1, "&wait=20000")
	}()
	time.Sleep(50 * time.Millisecond)
	_, sr := postJob(t, ts, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny"}`)
	waitDone(t, ts, sr.Jobs[0].ID)
	select {
	case batch := <-got:
		if len(batch.Frames) == 0 {
			t.Fatal("long poll woke with no frames")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long poll never woke")
	}
}
