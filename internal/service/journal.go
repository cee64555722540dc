package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"sync"
)

// journalSchemaVersion guards the journal's record encoding the same way
// keySchemaVersion guards the cache: a journal written under a different
// schema is ignored wholesale on replay (its specs may no longer name
// the same computations), never misinterpreted. Version 2 added
// per-record CRC32 framing and the propagated deadline; version 3 made
// done records carry the settled cache entry and stamped every record
// with its replication sequence.
const journalSchemaVersion = 3

// journalOp is one job lifecycle transition.
type journalOp string

const (
	opSubmitted journalOp = "submitted"
	opStarted   journalOp = "started"
	opDone      journalOp = "done"
	opFailed    journalOp = "failed"
	opCanceled  journalOp = "canceled"

	// opCheckpoint closes a replication bootstrap batch; its Seq is the
	// stream sequence the follower resumes from. It is never journaled.
	opCheckpoint journalOp = "checkpoint"
)

func (op journalOp) terminal() bool {
	return op == opDone || op == opFailed || op == opCanceled
}

// journalRecord is one line of the append-only job journal, and one
// frame of the replication stream: a lifecycle transition keyed by job
// ID and content address. Submitted records carry the full canonical
// cell (and the propagated deadline, when one was set) so a recovering
// daemon can re-enqueue the job without any other state; failed and
// canceled records carry the outcome; done records carry the settled
// cache entry — workload, simulated cycles, result bytes and their
// digest — so replay and followers rebuild the cache from the log alone.
type journalRecord struct {
	Schema   int            `json:"schema"`
	Seq      uint64         `json:"seq,omitempty"` // replication sequence; 0 on compaction and bootstrap records
	Op       journalOp      `json:"op"`
	ID       string         `json:"id"`
	Key      string         `json:"key,omitempty"`
	Cell     *canonicalCell `json:"cell,omitempty"`
	Deadline string         `json:"deadline,omitempty"` // RFC3339Nano; set on submitted records when the job carried one
	Error    string         `json:"error,omitempty"`
	Kind     string         `json:"kind,omitempty"` // failure kind ("panic"/"error") on failed records

	Workload  string          `json:"workload,omitempty"`
	SimCycles int64           `json:"simCycles,omitempty"`
	Digest    string          `json:"digest,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"` // always the payload's last field (see frameRecord)
}

// doneRecord is the record that settles job id (empty in a bootstrap
// batch) with cache entry e. Its Result shares e's bytes.
func doneRecord(id string, e *CacheEntry) journalRecord {
	return journalRecord{
		Op: opDone, ID: id, Key: e.Key, Cell: e.Cell,
		Workload: e.Workload, SimCycles: e.SimCycles, Digest: e.Digest, Result: e.Result,
	}
}

// frame is one encoded journal line: an 8-hex-digit CRC32 (IEEE) of the
// JSON payload, a space, the payload, a newline. A record's result bytes
// are spliced in as the payload's last field and held by reference, so a
// frame kept in the replication log shares them with the cache entry
// instead of copying them.
type frame struct {
	head   []byte // CRC, space, and the payload up to the result value
	result []byte // nil when the record carries no result
}

// appendTo appends the whole line, newline included, to b.
func (f frame) appendTo(b []byte) []byte {
	b = append(b, f.head...)
	if f.result != nil {
		b = append(append(b, f.result...), '}')
	}
	return append(b, '\n')
}

// frameRecord encodes rec as one line. The CRC lets replay tell a flipped
// bit mid-file from a crash-truncated tail, and lets a follower verify a
// record before applying it. A record is encoded once: the same frame is
// appended to the disk journal and served to followers.
func frameRecord(rec journalRecord) (frame, error) {
	rec.Schema = journalSchemaVersion
	f := frame{}
	if len(rec.Result) > 0 {
		f.result = rec.Result
	}
	rec.Result = nil
	payload, err := json.Marshal(rec)
	if err != nil {
		return frame{}, fmt.Errorf("service: encoding journal record: %w", err)
	}
	if f.result != nil {
		payload = append(payload[:len(payload)-1], `,"result":`...)
	}
	crc := crc32.ChecksumIEEE(payload)
	if f.result != nil {
		crc = crc32.Update(crc, crc32.IEEETable, f.result)
		crc = crc32.Update(crc, crc32.IEEETable, []byte{'}'})
	}
	f.head = fmt.Appendf(make([]byte, 0, len(payload)+9), "%08x ", crc)
	f.head = append(f.head, payload...)
	return f, nil
}

// parseFrame decodes one journal line produced by frameRecord. ok is
// false when the frame is malformed or the CRC does not match the
// payload — the caller decides whether that means a torn tail or a
// mid-file corruption to quarantine. stale is true when the line is a
// well-formed record written under a different journal schema (including
// pre-framing schema-1 journals, which were bare JSON lines): such
// journals are ignored wholesale, never treated as corruption.
func parseFrame(line []byte) (rec journalRecord, ok, stale bool) {
	if len(line) > 9 && line[8] == ' ' {
		if crc, err := strconv.ParseUint(string(line[:8]), 16, 32); err == nil {
			payload := line[9:]
			if crc32.ChecksumIEEE(payload) != uint32(crc) {
				return rec, false, false
			}
			if json.Unmarshal(payload, &rec) != nil {
				return rec, false, false
			}
			if rec.Schema != journalSchemaVersion {
				return rec, false, true
			}
			return rec, true, false
		}
	}
	// Not framed. A bare JSON record is an old-schema journal (framing
	// arrived with schema 2); anything else is corruption.
	var old journalRecord
	if json.Unmarshal(line, &old) == nil && old.Schema != 0 && old.Schema != journalSchemaVersion {
		return rec, false, true
	}
	return rec, false, false
}

// decodeFrames decodes a replication batch — the frame lines of a stream
// or bootstrap response — through parseFrame. Any line that fails its
// CRC, or belongs to another schema, refuses the whole batch, as does a
// final line cut short of its newline.
func decodeFrames(body []byte) ([]journalRecord, error) {
	var recs []journalRecord
	for len(body) > 0 {
		line, rest, ok := bytes.Cut(body, []byte{'\n'})
		if !ok {
			return nil, fmt.Errorf("%w: frame %d is torn", ErrReplCorrupt, len(recs))
		}
		rec, ok, _ := parseFrame(line)
		if !ok {
			return nil, fmt.Errorf("%w: frame %d fails its CRC", ErrReplCorrupt, len(recs))
		}
		recs = append(recs, rec)
		body = rest
	}
	return recs, nil
}

// Journal is the daemon's write-ahead log of job lifecycle records: an
// append-only file of CRC-framed JSON lines, fsync'd after every append,
// rotated atomically (temp file + rename) when its completed records
// have been compacted into the cache snapshot. Appends are serialized by
// the journal's own mutex; the fsync happens inside the critical section
// so the on-disk record order matches the append order.
type Journal struct {
	mu   sync.Mutex
	fs   FS
	path string
	f    File

	records uint64 // appends since open (monotone; metrics reads it)
}

// OpenJournal opens (creating if absent) the journal at path for
// appending. Replay the existing contents first with ReplayJournal:
// opening is cheap and does not read the file.
func OpenJournal(fsys FS, path string) (*Journal, error) {
	f, err := fsys.Append(path)
	if err != nil {
		return nil, fmt.Errorf("service: opening journal: %w", err)
	}
	return &Journal{fs: fsys, path: path, f: f}, nil
}

// Append durably writes framed records: one write of their lines, then
// one fsync. An error means the records may not be on stable storage —
// the server reacts by degrading to memory-only mode rather than
// crashing.
func (j *Journal) Append(frames ...frame) error {
	var lines []byte
	for _, f := range frames {
		lines = f.appendTo(lines)
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("service: journal is closed")
	}
	if _, err := j.f.Write(lines); err != nil {
		return fmt.Errorf("service: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("service: journal fsync: %w", err)
	}
	j.records += uint64(len(frames))
	return nil
}

// Records returns the number of records appended since the journal was
// opened (replayed records are not counted).
func (j *Journal) Records() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Rotate atomically replaces the journal with one containing only the
// given live records — called right after the cache snapshot is written,
// at which point every completed job's result is snapshot-covered and
// its records are dead weight. The new journal is written to a temp
// file, fsync'd, and renamed over the old one; a crash at any point
// leaves either the old journal or the new one, never a torn mix.
func (j *Journal) Rotate(live []journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("service: journal is closed")
	}

	tmp := j.path + ".tmp"
	f, err := j.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("service: journal rotate: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, rec := range live {
		fr, err := frameRecord(rec)
		if err != nil {
			f.Close()
			j.fs.Remove(tmp)
			return fmt.Errorf("service: journal rotate: %w", err)
		}
		if _, err := w.Write(fr.appendTo(nil)); err != nil {
			f.Close()
			j.fs.Remove(tmp)
			return fmt.Errorf("service: journal rotate: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		j.fs.Remove(tmp)
		return fmt.Errorf("service: journal rotate: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		j.fs.Remove(tmp)
		return fmt.Errorf("service: journal rotate: %w", err)
	}
	if err := f.Close(); err != nil {
		j.fs.Remove(tmp)
		return fmt.Errorf("service: journal rotate: %w", err)
	}
	if err := j.fs.Rename(tmp, j.path); err != nil {
		j.fs.Remove(tmp)
		return fmt.Errorf("service: journal rotate: %w", err)
	}

	// The old handle now points at the unlinked inode; reopen on the
	// fresh file so subsequent appends land in the rotated journal.
	j.f.Close()
	nf, err := j.fs.Append(j.path)
	if err != nil {
		j.f = nil
		return fmt.Errorf("service: journal reopen after rotate: %w", err)
	}
	j.f = nf
	return nil
}

// Close releases the journal file. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// replayedJob is the folded state of one job after reading the journal:
// its latest lifecycle op plus the spec-bearing fields from whichever
// records carried them, and the done record that settled it, if any.
type replayedJob struct {
	ID       string
	Key      string
	Cell     *canonicalCell
	Deadline string
	Op       journalOp
	Error    string
	Kind     string
	Done     *journalRecord
}

// ReplayJournal reads the journal at path and folds its records into
// per-job states, in first-submission order. A missing file is an empty
// journal (first boot). Each record's CRC is verified: a bad final line —
// the signature of a crash mid-append — is tolerated and counted as
// torn; bad records anywhere else (a flipped bit, a torn middle) are
// quarantined record-by-record into <path>.quarantine and counted, and
// the surviving records are still replayed. A journal written under a
// different schema version is ignored wholesale, like the snapshot.
func ReplayJournal(fsys FS, path string) (jobs []*replayedJob, torn, quarantined int, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, 0, nil
		}
		return nil, 0, 0, fmt.Errorf("service: opening journal for replay: %w", err)
	}
	defer f.Close()

	var quarantine File
	defer func() {
		if quarantine != nil {
			quarantine.Close()
		}
	}()
	// pendingBad holds undecodable lines whose classification depends on
	// what follows: a good record after them proves mid-file corruption
	// (quarantine); end-of-file leaves the last one as a torn tail.
	var pendingBad [][]byte
	flushBad := func() error {
		if len(pendingBad) == 0 {
			return nil
		}
		if quarantine == nil {
			q, qerr := fsys.Append(path + ".quarantine")
			if qerr != nil {
				return fmt.Errorf("service: opening journal quarantine: %w", qerr)
			}
			quarantine = q
		}
		for _, raw := range pendingBad {
			if _, werr := quarantine.Write(append(raw, '\n')); werr != nil {
				return fmt.Errorf("service: writing journal quarantine: %w", werr)
			}
		}
		quarantined += len(pendingBad)
		pendingBad = pendingBad[:0]
		return nil
	}

	byID := make(map[string]*replayedJob)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec, ok, stale := parseFrame(line)
		if stale {
			return nil, 0, 0, nil // stale schema: ignore wholesale, like the snapshot
		}
		if !ok {
			pendingBad = append(pendingBad, bytes.Clone(line))
			continue
		}
		if err := flushBad(); err != nil {
			return nil, 0, quarantined, err
		}
		j, ok := byID[rec.ID]
		if !ok {
			j = &replayedJob{ID: rec.ID}
			byID[rec.ID] = j
			jobs = append(jobs, j)
		}
		j.Op = rec.Op
		if rec.Key != "" {
			j.Key = rec.Key
		}
		if rec.Cell != nil {
			j.Cell = rec.Cell
		}
		if rec.Deadline != "" {
			j.Deadline = rec.Deadline
		}
		if rec.Error != "" {
			j.Error = rec.Error
		}
		if rec.Kind != "" {
			j.Kind = rec.Kind
		}
		if rec.Op == opDone {
			j.Done = &rec
		}
	}
	if serr := sc.Err(); serr != nil {
		return nil, 0, quarantined, fmt.Errorf("service: reading journal: %w", serr)
	}
	// Whatever is still pending at EOF: the last bad line is the classic
	// crash-torn tail; any bad lines before it are mid-file corruption.
	if n := len(pendingBad); n > 0 {
		torn = 1
		pendingBad = pendingBad[:n-1]
		if err := flushBad(); err != nil {
			return nil, torn, quarantined, err
		}
	}
	return jobs, torn, quarantined, nil
}
