package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"sync"
)

// journalSchemaVersion versions the frame's record encoding. Version 2
// added per-record CRC32 framing and the propagated deadline; version 3
// made done records carry the settled cache entry and stamped every
// record with its replication sequence.
const journalSchemaVersion = 3

// frameSchema is the schema stamp on every frame. It folds in both the
// record encoding's version and the cell key's (keySchemaVersion), so a
// bump of either makes every persisted or streamed frame stale: the
// image, the journal and a replication batch written under the old
// schema are ignored wholesale (their addresses may no longer name the
// same computations), never misinterpreted.
const frameSchema = journalSchemaVersion*100 + keySchemaVersion

// journalOp is one job lifecycle transition.
type journalOp string

const (
	opSubmitted journalOp = "submitted"
	opStarted   journalOp = "started"
	opDone      journalOp = "done"
	opFailed    journalOp = "failed"
	opCanceled  journalOp = "canceled"

	// opCheckpoint closes an image (a bootstrap batch or the file at
	// SnapshotPath); its Seq is the stream sequence a follower resumes
	// from. It is never journaled.
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
	Seq      uint64         `json:"seq,omitempty"` // replication sequence; 0 on compacted records (images, rotated journals)
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

// doneRecord is the record that settles job id (empty in an image) with
// cache entry e. Its Result shares e's bytes.
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
	rec.Schema = frameSchema
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

// frameAll encodes recs as consecutive frame lines.
func frameAll(recs []journalRecord) ([]byte, error) {
	var body []byte
	for _, rec := range recs {
		f, err := frameRecord(rec)
		if err != nil {
			return nil, err
		}
		body = f.appendTo(body)
	}
	return body, nil
}

// closesImage reports whether recs end with the checkpoint that closes
// an image. Without it the image is garbage or a copy cut short.
func closesImage(recs []journalRecord) bool {
	return len(recs) > 0 && recs[len(recs)-1].Op == opCheckpoint
}

// parseFrame decodes one journal line produced by frameRecord. ok is
// false when the frame is malformed or the CRC does not match the
// payload — the caller decides whether that means a torn tail or a
// mid-file corruption to quarantine. stale is true when the line is a
// well-formed record stamped with another frameSchema (including
// pre-framing schema-1 journals, which were bare JSON lines): such files
// are ignored wholesale, never treated as corruption.
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
			if rec.Schema != frameSchema {
				return rec, false, true
			}
			return rec, true, false
		}
	}
	// Not framed. A bare JSON record is an old-schema journal (framing
	// arrived with schema 2); anything else is corruption.
	var old journalRecord
	if json.Unmarshal(line, &old) == nil && old.Schema != 0 && old.Schema != frameSchema {
		return rec, false, true
	}
	return rec, false, false
}

// decodeFrames decodes a replication batch — the frame lines of a stream
// or bootstrap response — through scanFrames. Any line that fails its
// CRC, or belongs to another schema, refuses the whole batch, as does a
// final line cut short of its newline.
func decodeFrames(body []byte) ([]journalRecord, error) {
	if len(body) > 0 && body[len(body)-1] != '\n' {
		return nil, fmt.Errorf("%w: the final frame is torn", ErrReplCorrupt)
	}
	ff := scanFrames(body)
	if ff.stale || ff.torn || len(ff.bad) > 0 {
		return nil, fmt.Errorf("%w: a frame fails its CRC or schema", ErrReplCorrupt)
	}
	return ff.recs, nil
}

// Journal is the daemon's write-ahead log of job lifecycle records: an
// append-only file of CRC-framed JSON lines, fsync'd after every append,
// rotated atomically down to the live jobs when the server compacts its
// state into the image. Appends are serialized by the journal's own
// mutex; the fsync happens inside the critical section so the on-disk
// record order matches the append order.
type Journal struct {
	mu   sync.Mutex
	fs   FS
	path string
	f    File

	records uint64 // appends since open (monotone; metrics reads it)
}

// OpenJournal opens (creating if absent) the journal at path for
// appending. Replay the existing contents first (readFrames, foldJobs):
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

// rotateLocked atomically replaces the journal with one holding only the
// given live records, and reopens it so later appends land in the new
// file. The server calls it from its compaction, with the image already
// written, so every finished job's result is image-covered and its
// records are dead weight. Caller holds j.mu, from before the image's
// contents were gathered, so no append can fall between the two.
func (j *Journal) rotateLocked(live []journalRecord) error {
	if j.f == nil {
		return fmt.Errorf("service: journal is closed")
	}
	body, err := frameAll(live)
	if err == nil {
		err = writeFileAtomic(j.fs, j.path, body)
	}
	if err != nil {
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

// writeFileAtomic replaces path with body: written to a temp file,
// fsync'd, and renamed over path, so a crash at any point leaves either
// the old file or the new one, never a torn mix. The image and the
// journal rotation both commit through it.
func writeFileAtomic(fsys FS, path string, body []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(body)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
	}
	return err
}

// frameFile is a body of frame lines as scanFrames found it.
type frameFile struct {
	recs  []journalRecord // records whose frames verify, in file order
	bad   [][]byte        // mid-file lines that fail their CRC: a good frame follows each
	torn  bool            // the final line fails: a crash cut the last append short
	stale bool            // written under another frameSchema: ignored wholesale
}

// scanFrames decodes body line by line through parseFrame — the one
// scanner behind the image, the journal, the journal scrub and
// replication batches. Body that is stamped with another schema scans
// as stale and empty, never as corruption.
func scanFrames(body []byte) frameFile {
	var ff frameFile
	lastBad := false
	for len(body) > 0 {
		line, rest, _ := bytes.Cut(body, []byte{'\n'})
		body = rest
		if len(line) == 0 {
			continue
		}
		rec, ok, stale := parseFrame(line)
		if stale {
			return frameFile{stale: true}
		}
		if lastBad = !ok; lastBad {
			ff.bad = append(ff.bad, line)
			continue
		}
		ff.recs = append(ff.recs, rec)
	}
	// The last bad line, when nothing good follows it, is the classic
	// crash-torn tail; any bad lines before it are mid-file corruption.
	if lastBad {
		ff.torn = true
		ff.bad = ff.bad[:len(ff.bad)-1]
	}
	return ff
}

// readFrames reads and scans the frame file at path. An open error
// (os.IsNotExist on first boot) is returned as is.
func readFrames(fsys FS, path string) (frameFile, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return frameFile{}, err
	}
	data, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return frameFile{}, err
	}
	return scanFrames(data), nil
}

// quarantineLines appends corrupt frame lines to <path>.quarantine, so
// the bytes are preserved for post-mortem, never replayed and never
// destroyed.
func quarantineLines(fsys FS, path string, lines [][]byte) error {
	if len(lines) == 0 {
		return nil
	}
	var buf []byte
	for _, line := range lines {
		buf = append(append(buf, line...), '\n')
	}
	q, err := fsys.Append(path + ".quarantine")
	if err != nil {
		return fmt.Errorf("service: opening quarantine: %w", err)
	}
	defer q.Close()
	if _, err := q.Write(buf); err != nil {
		return fmt.Errorf("service: writing quarantine: %w", err)
	}
	return nil
}

// replayedJob is the folded state of one job after reading the image and
// the journal: its latest lifecycle op plus the spec-bearing fields from
// whichever records carried them, and the done record that settled it,
// if any.
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

// foldJobs folds lifecycle records into per-job states, in
// first-submission order. Records without a job ID — an image's cache
// entries and its closing checkpoint — belong to no job and are skipped.
func foldJobs(recs []journalRecord) []*replayedJob {
	var jobs []*replayedJob
	byID := make(map[string]*replayedJob)
	for i := range recs {
		rec := &recs[i]
		if rec.ID == "" {
			continue
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
			j.Done = rec
		}
	}
	return jobs
}
