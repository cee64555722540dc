package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Warm-standby replication.
//
// A primary appends every job lifecycle record to an in-memory
// replication log (independent of the disk journal, which rotates) and
// serves it to followers over HTTP:
//
//	GET  /v1/replication/stream?from=N    long-poll a frame batch
//	GET  /v1/replication/snapshot         bootstrap batch (cache + live jobs)
//	POST /v1/replication/promote          follower -> serving primary
//
// Both GETs answer with the journal's own CRC-framed lines, so
// parseFrame is the only decoder on either side. A record is framed once,
// stamped with its replication sequence, and that one frame goes to the
// disk journal and the replication log; done records carry the settled
// cache entry, with the result bytes shared with the cache rather than
// copied. The follower checks every frame's CRC before applying any, and
// each done record's content digest as it settles the entry, so a
// corrupted stream (lying disk, torn proxy, flipped bit) is refused,
// never served. A follower applies frames into its own journal and cache
// — a warm standby executes nothing — and on promotion serves every
// settled key from the replicated cache (zero duplicate simulated
// cycles), sheds re-enqueued jobs whose propagated deadline has passed,
// and re-enqueues the rest into a freshly started worker pool.

// Sentinel errors for replication roles.
var (
	// ErrFollowing reports that this daemon is a warm standby: it
	// accepts no submissions until promoted (HTTP 503 — the client's
	// pool fails over to a serving endpoint).
	ErrFollowing = errors.New("service: following a primary, not accepting jobs")

	// ErrNotFollowing reports a replication-apply or promote call on a
	// daemon that is not (or no longer) a follower.
	ErrNotFollowing = errors.New("service: not following a primary")

	// ErrReplCorrupt reports a replication batch that failed its CRC or
	// content-digest verification: the data is refused.
	ErrReplCorrupt = errors.New("service: replication data failed integrity verification")

	// ErrReplGap reports a stream discontinuity: the follower's next
	// expected sequence number is no longer in the primary's log, so it
	// must re-sync from a bootstrap batch.
	ErrReplGap = errors.New("service: replication stream gap, snapshot re-sync required")
)

// replNextHeader carries the primary log head (the next sequence it will
// assign) on every stream response, for the follower's lag bookkeeping.
const replNextHeader = "X-ASF-Repl-Next"

// ReplBatch is one replication response as a follower received it.
type ReplBatch struct {
	// Frames holds the CRC-framed journal lines, verified only when the
	// batch is applied.
	Frames []byte
	// NextSeq is the primary's log head when it answered.
	NextSeq uint64
	// SnapshotNeeded is set when the requested sequence has been trimmed
	// from the primary's log (HTTP 410): bootstrap before streaming again.
	SnapshotNeeded bool
}

// ReadReplBatch reads a stream or bootstrap response into a ReplBatch
// and closes its body. Any status other than 200 and 410 is an error.
func ReadReplBatch(resp *http.Response) (ReplBatch, error) {
	defer resp.Body.Close()
	var b ReplBatch
	if v := resp.Header.Get(replNextHeader); v != "" {
		b.NextSeq, _ = strconv.ParseUint(v, 10, 64)
	}
	switch resp.StatusCode {
	case http.StatusGone:
		b.SnapshotNeeded = true
		return b, nil
	case http.StatusOK:
	default:
		return b, fmt.Errorf("service: replication response %s", resp.Status)
	}
	var err error
	b.Frames, err = io.ReadAll(resp.Body)
	return b, err
}

// replLog is the primary's bounded in-memory replication log: a window
// of frames with monotone sequence numbers (starting at 1), trimmed from
// the front at capacity. Followers that fall behind the window re-sync
// from a bootstrap batch. The log has its own lock and is safe to append
// to while holding the server mutex.
type replLog struct {
	mu     sync.Mutex
	cap    int
	frames []frame
	first  uint64        // seq of frames[0]
	next   uint64        // next seq to assign
	notify chan struct{} // closed and replaced on every append (long-poll wakeup)
}

func newReplLog(capacity int) *replLog {
	if capacity <= 0 {
		capacity = 8192
	}
	return &replLog{cap: capacity, first: 1, next: 1, notify: make(chan struct{})}
}

// append stamps rec with the next sequence number, frames it, and stores
// the frame, waking any long-polling stream handlers. The caller writes
// the same frame to the disk journal.
func (l *replLog) append(rec journalRecord) (frame, error) {
	l.mu.Lock()
	rec.Seq = l.next
	f, err := frameRecord(rec)
	if err != nil {
		l.mu.Unlock()
		return f, err
	}
	l.frames = append(l.frames, f)
	l.next++
	if drop := len(l.frames) - l.cap; drop > 0 {
		l.frames = append(l.frames[:0], l.frames[drop:]...)
		l.first += uint64(drop)
	}
	ch := l.notify
	l.notify = make(chan struct{})
	l.mu.Unlock()
	close(ch)
	return f, nil
}

// fetch copies up to max frames starting at seq from, plus the log
// bounds and the channel that closes on the next append (for long-poll
// waits). An empty result with from < first means the window has moved
// past the caller: bootstrap required.
func (l *replLog) fetch(from uint64, max int) (frames []frame, first, next uint64, notify <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	first, next, notify = l.first, l.next, l.notify
	if from < first || from >= next {
		return nil, first, next, notify
	}
	i := int(from - l.first)
	j := len(l.frames)
	if j-i > max {
		j = i + max
	}
	frames = append([]frame(nil), l.frames[i:j]...)
	return frames, first, next, notify
}

// verifyAll re-checks the CRC of every frame currently in the window
// and returns the number that no longer verify — the scrubber's sweep
// over the in-memory replication plane. Frames cannot be repaired in
// place (followers refuse them on fetch anyway); a nonzero count is a
// detection signal, reported per pass.
func (l *replLog) verifyAll() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	bad := 0
	var line []byte
	for _, f := range l.frames {
		line = f.appendTo(line[:0])
		if _, ok, _ := parseFrame(line[:len(line)-1]); !ok {
			bad++
		}
	}
	return bad
}

// nextSeq returns the next sequence number the log will assign.
func (l *replLog) nextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Following reports whether the daemon is a warm standby.
func (s *Server) Following() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.following
}

// ReplNextApply returns the next replication sequence number this
// follower expects (1 before any sync).
func (s *Server) ReplNextApply() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replNextApply
}

// ReplicationLag returns how many primary records this follower has not
// yet applied (0 when it has never heard from a primary, or is not a
// follower).
func (s *Server) ReplicationLag() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replicationLagLocked()
}

func (s *Server) replicationLagLocked() int64 {
	if s.replPrimaryNext == 0 || s.replPrimaryNext <= s.replNextApply {
		return 0
	}
	return int64(s.replPrimaryNext - s.replNextApply)
}

// bootstrapBatch assembles the GET /v1/replication/snapshot body: the
// image's frames, the same bytes Persist writes to SnapshotPath.
func (s *Server) bootstrapBatch() (body []byte, entries, jobs int, err error) {
	s.mu.Lock()
	im := s.imageLocked()
	s.mu.Unlock()
	body, err = im.frames()
	return body, len(im.entries), len(im.live), err
}

// settle stores a done record's cache entry, provided its result bytes
// hash to its recorded digest, and returns the entry the cache holds
// for the key (the first stored bytes win). Journal replay, the
// follower's stream apply and its bootstrap all settle done records
// here. ok is false, and nothing is stored, on a digest mismatch.
func (s *Server) settle(rec journalRecord) (*CacheEntry, bool) {
	if rec.Digest == "" || ResultDigest(rec.Result) != rec.Digest {
		return nil, false
	}
	e := rec.entry()
	s.cache.Put(e)
	if stored, ok := s.cache.peek(rec.Key); ok {
		return stored, true
	}
	// The key held corrupt bytes, which the read dropped (or e was
	// evicted at once): store the verified entry.
	s.cache.Put(e)
	return e, true
}

// entry is the cache entry a done record carries.
func (rec *journalRecord) entry() *CacheEntry {
	return &CacheEntry{Key: rec.Key, Workload: rec.Workload, SimCycles: rec.SimCycles,
		Result: rec.Result, Digest: rec.Digest, Cell: rec.Cell}
}

// ApplyReplicatedBootstrap verifies and applies a bootstrap batch on a
// follower: every frame's CRC first, then each done record's digest as
// its entry is settled. A corrupt frame, a digest mismatch or a missing
// closing checkpoint refuses the batch with ErrReplCorrupt and leaves
// the stream cursor where it was (verified entries already settled stay
// cached). Live jobs are registered as pending — the standby executes
// nothing. Returns the number of cache entries applied.
func (s *Server) ApplyReplicatedBootstrap(body []byte) (int, error) {
	recs, err := decodeFrames(body)
	if err == nil && !closesImage(recs) {
		err = fmt.Errorf("%w: bootstrap batch has no closing checkpoint", ErrReplCorrupt)
	}
	if err != nil {
		s.metrics.incReplCorrupt()
		return 0, err
	}
	resume := recs[len(recs)-1].Seq

	s.mu.Lock()
	if !s.following {
		s.mu.Unlock()
		return 0, ErrNotFollowing
	}
	applied := 0
	for _, rec := range recs[:len(recs)-1] {
		switch rec.Op {
		case opDone:
			if _, ok := s.settle(rec); !ok {
				s.mu.Unlock()
				s.metrics.incReplDigestMismatch()
				return applied, fmt.Errorf("%w: bootstrap entry %s digest mismatch", ErrReplCorrupt, rec.Key)
			}
			applied++
		case opSubmitted:
			s.applyPendingJobLocked(rec)
		}
	}
	if resume > s.replNextApply {
		s.replNextApply = resume
	}
	if resume > s.replPrimaryNext {
		s.replPrimaryNext = resume
	}
	s.mu.Unlock()

	// Quarantined keys the scrubber marked repair-pending may just have
	// been restored by this verified batch.
	s.auditSettleRepairs()
	return applied, nil
}

// applyPendingJobLocked registers one replicated live job, from its
// submitted record, as pending (queued, never enqueued — the follower
// has no workers). Idempotent on re-sync. Caller holds s.mu.
func (s *Server) applyPendingJobLocked(rec journalRecord) {
	s.bumpIDLocked(rec.ID)
	if _, ok := s.jobs[rec.ID]; ok || rec.ID == "" || rec.Cell == nil {
		return
	}
	spec, err := rec.Cell.spec()
	if err != nil {
		return // replicated under an enum this build no longer knows
	}
	job := &Job{
		ID:    rec.ID,
		Key:   rec.Key,
		Spec:  spec.Normalize(),
		State: JobQueued,
		Done:  make(chan struct{}),
	}
	if job.Key == "" {
		job.Key = Key(spec)
	}
	if rec.Deadline != "" {
		if dl, perr := time.Parse(time.RFC3339Nano, rec.Deadline); perr == nil {
			job.Deadline = dl
		}
	}
	s.registerLocked(job)
}

// bumpIDLocked advances the ID allocator past a replicated primary job
// ID so post-promotion submissions cannot collide. Caller holds s.mu.
func (s *Server) bumpIDLocked(id string) {
	var n uint64
	if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n >= s.nextID {
		s.nextID = n + 1
	}
}

// ApplyReplicatedBatch verifies and applies one stream batch on a
// follower. Every frame's CRC is checked before anything is applied (a
// mismatch refuses the whole batch — the follower re-requests from the
// same sequence); frames already applied are skipped idempotently; a
// sequence gap demands a bootstrap; a done record whose digest does not
// match stops the batch at that frame. Applied records are folded into
// the follower's job table and cache and recorded in its own journal and
// replication log, so the standby's durable state is promotion-ready at
// every instant.
func (s *Server) ApplyReplicatedBatch(batch ReplBatch) (int, error) {
	start := time.Now()
	if batch.SnapshotNeeded {
		s.noteReplPrimaryNext(batch.NextSeq)
		return 0, ErrReplGap
	}
	recs, err := decodeFrames(batch.Frames)
	if err != nil {
		s.metrics.incReplCorrupt()
		return 0, err
	}

	s.mu.Lock()
	if !s.following {
		s.mu.Unlock()
		return 0, ErrNotFollowing
	}
	var local []journalRecord
	for _, rec := range recs {
		if rec.Seq < s.replNextApply {
			continue // already applied (bootstrap overlap or batch replay)
		}
		if rec.Seq > s.replNextApply {
			err = fmt.Errorf("%w: have %d, got %d", ErrReplGap, s.replNextApply, rec.Seq)
			break
		}
		own, ok := s.applyRecordLocked(rec)
		if !ok {
			s.metrics.incReplDigestMismatch()
			err = fmt.Errorf("%w: frame %d entry digest mismatch", ErrReplCorrupt, rec.Seq)
			break
		}
		local = append(local, own)
		s.replNextApply = rec.Seq + 1
	}
	// Durability and chainability, one journal write for the batch: the
	// follower's own journal survives its crashes, and its own
	// replication log lets another standby follow it after promotion.
	s.recordLocked("", local...)
	applied := len(local)
	if err == nil && batch.NextSeq > s.replPrimaryNext {
		s.replPrimaryNext = batch.NextSeq
	}
	lag := s.replicationLagLocked()
	s.mu.Unlock()

	s.metrics.addReplApplied(applied)
	if applied > 0 {
		d := time.Since(start)
		s.span(serverTrace, "replicate.apply", start, d,
			"frames", strconv.Itoa(applied), "lag", strconv.FormatInt(lag, 10))
		s.auditSettleRepairs()
	}
	return applied, err
}

// noteReplPrimaryNext records the primary's log head (lag bookkeeping)
// without applying anything.
func (s *Server) noteReplPrimaryNext(next uint64) {
	s.mu.Lock()
	if next > s.replPrimaryNext {
		s.replPrimaryNext = next
	}
	s.mu.Unlock()
}

// applyRecordLocked folds one verified record into the follower's state
// — job table, and cache via settle for done records — and returns the
// record as the follower records it. It reports false, applying
// nothing, when a done record's digest does not match. Caller holds
// s.mu; the cache has its own lock and never takes the server's.
func (s *Server) applyRecordLocked(rec journalRecord) (journalRecord, bool) {
	s.bumpIDLocked(rec.ID)
	job, known := s.jobs[rec.ID]
	switch rec.Op {
	case opSubmitted:
		s.applyPendingJobLocked(rec)
	case opStarted:
		// The primary started executing; the standby keeps the job
		// pending — if the primary dies before the done record arrives,
		// promotion re-enqueues it.
	case opDone:
		e, ok := s.settle(rec)
		if !ok {
			return rec, false
		}
		// Re-record with the cache's bytes, so the follower's log shares
		// them too.
		rec = doneRecord(rec.ID, e)
		if !known {
			// Combined accept+done record (cache-hit submission): register
			// it terminal directly.
			s.applyPendingJobLocked(rec)
			job, known = s.jobs[rec.ID]
		}
		if known && !job.State.terminal() {
			job.State = JobDone
			job.CacheHit = true
			job.Result = e.Result
			job.closeDone()
		}
	case opFailed, opCanceled:
		if known && !job.State.terminal() {
			if rec.Op == opFailed {
				job.State = JobFailed
			} else {
				job.State = JobCanceled
			}
			job.Err = rec.Error
			job.ErrKind = rec.Kind
			job.closeDone()
		}
	}
	return rec, true
}

// PromoteStats summarizes a promotion: how the replicated pending set
// was disposed of.
type PromoteStats struct {
	FromCache  int `json:"fromCache"`  // pending jobs settled from the replicated cache (zero cycles)
	Reenqueued int `json:"reenqueued"` // pending jobs re-enqueued for execution
	Shed       int `json:"shed"`       // pending jobs shed because their propagated deadline had passed
}

// Promote turns a warm standby into a serving primary: the worker pool
// starts, every replicated pending job whose key is already settled in
// the cache completes immediately from the replicated bytes (zero
// duplicate simulated cycles), pending jobs whose propagated deadline
// has passed are shed (canceled, never executed), and the rest are
// re-enqueued for execution. Submissions are accepted from the moment
// Promote returns. Errors with ErrNotFollowing if the daemon is not a
// follower (including a second Promote).
func (s *Server) Promote() (PromoteStats, error) {
	start := time.Now()
	var st PromoteStats

	s.mu.Lock()
	if !s.following {
		s.mu.Unlock()
		return st, ErrNotFollowing
	}
	if s.draining {
		s.mu.Unlock()
		return st, ErrDraining
	}
	s.following = false

	var pending []*Job
	for _, id := range s.order {
		if job, ok := s.jobs[id]; ok && job.State == JobQueued {
			pending = append(pending, job)
		}
	}
	// The queue must hold the whole pending set up front (workers start
	// below); Submit keeps enforcing the configured bound itself.
	qcap := s.cfg.QueueDepth
	if len(pending) > qcap {
		qcap = len(pending)
	}
	s.queue = make(chan *Job, qcap)

	now := time.Now()
	for _, job := range pending {
		if e, ok := s.cache.peek(job.Key); ok {
			job.State = JobDone
			job.CacheHit = true
			job.Result = e.Result
			job.closeDone()
			s.recordLocked(job.TraceID, doneRecord(job.ID, e))
			s.metrics.incCompleted()
			st.FromCache++
			continue
		}
		if !job.Deadline.IsZero() && !now.Before(job.Deadline) {
			job.State = JobCanceled
			job.Err = "deadline expired before promotion"
			job.closeDone()
			s.recordLocked(job.TraceID, journalRecord{Op: opCanceled, ID: job.ID, Key: job.Key, Error: job.Err})
			s.metrics.incShedExpired()
			s.metrics.incCanceled()
			st.Shed++
			continue
		}
		job.enqueuedAt = time.Now()
		s.queue <- job
		st.Reenqueued++
	}

	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.mu.Unlock()

	s.metrics.notePromotion(st)
	d := time.Since(start)
	s.span(serverTrace, "promote", start, d,
		"fromCache", strconv.Itoa(st.FromCache),
		"reenqueued", strconv.Itoa(st.Reenqueued),
		"shed", strconv.Itoa(st.Shed))
	s.logger.Info("promoted to primary",
		"fromCache", st.FromCache, "reenqueued", st.Reenqueued, "shed", st.Shed)
	return st, nil
}

// handleReplStream serves GET /v1/replication/stream: a frame batch
// from ?from=N (default 1), long-polling up to ?wait=ms when the log has
// nothing new, at most ?max frames (default 512).
func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q := r.URL.Query()
	from := uint64(1)
	if v := q.Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad from "+v)
			return
		}
		from = n
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "bad wait "+v)
			return
		}
		wait = time.Duration(ms) * time.Millisecond
		if wait > 30*time.Second {
			wait = 30 * time.Second
		}
	}
	max := 512
	if v := q.Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad max "+v)
			return
		}
		if n > 4096 {
			n = 4096
		}
		max = n
	}

	deadline := time.Now().Add(wait)
	for {
		frames, first, next, notify := s.repl.fetch(from, max)
		w.Header().Set(replNextHeader, strconv.FormatUint(next, 10))
		if from < first {
			writeError(w, http.StatusGone, fmt.Sprintf("sequence %d trimmed from the replication log (first %d): bootstrap from /v1/replication/snapshot", from, first))
			return
		}
		if len(frames) > 0 || wait <= 0 || !time.Now().Before(deadline) {
			s.metrics.addReplSent(len(frames))
			var body []byte
			for _, f := range frames {
				body = f.appendTo(body)
			}
			if len(frames) > 0 {
				d := time.Since(start)
				s.span(serverTrace, "replicate.send", start, d,
					"from", strconv.FormatUint(from, 10), "frames", strconv.Itoa(len(frames)))
			}
			writeFrames(w, body)
			return
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-notify:
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		}
		timer.Stop()
	}
}

// handleReplSnapshot serves GET /v1/replication/snapshot.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, entries, jobs, err := s.bootstrapBatch()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.metrics.incReplSnapshotsServed()
	d := time.Since(start)
	s.span(serverTrace, "replicate.send", start, d,
		"snapshot", "true", "entries", strconv.Itoa(entries), "jobs", strconv.Itoa(jobs))
	writeFrames(w, body)
}

// writeFrames writes a batch of frame lines as a 200 response.
func writeFrames(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// handlePromote serves POST /v1/replication/promote.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	st, err := s.Promote()
	if err != nil {
		status := http.StatusConflict
		if errors.Is(err, ErrDraining) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}
