package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/harness"
	"repro/internal/workloads"
)

func testCell(t *testing.T, seed uint64) (harness.CellSpec, canonicalCell) {
	t.Helper()
	spec := harness.CellSpec{
		Workload: workloads.Names()[0],
		Scale:    workloads.ScaleTiny,
		Seed:     seed,
	}.Normalize()
	return spec, encodeCell(spec)
}

// mustFrame is the test-side framing helper: rec encoded as the writer
// encodes it.
func mustFrame(t *testing.T, rec journalRecord) frame {
	t.Helper()
	f, err := frameRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// replayJournal reads and folds the journal at path, quarantining its
// mid-file bad lines, as startup does when there is no image.
func replayJournal(path string) (jobs []*replayedJob, torn, quarantined int, err error) {
	ff, err := readFrames(OSFS{}, path)
	if os.IsNotExist(err) {
		return nil, 0, 0, nil
	}
	if err == nil {
		err = quarantineLines(OSFS{}, path, ff.bad)
	}
	if ff.torn {
		torn = 1
	}
	return foldJobs(ff.recs), torn, len(ff.bad), err
}

// frameLine is one CRC-framed journal line, newline included.
func frameLine(t *testing.T, rec journalRecord) []byte {
	t.Helper()
	return mustFrame(t, rec).appendTo(nil)
}

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, err := OpenJournal(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	_, cell1 := testCell(t, 1)
	_, cell2 := testCell(t, 2)
	recs := []journalRecord{
		{Op: opSubmitted, ID: "job-000000", Key: "k1", Cell: &cell1},
		{Op: opSubmitted, ID: "job-000001", Key: "k2", Cell: &cell2},
		{Op: opStarted, ID: "job-000000", Key: "k1"},
		{Op: opDone, ID: "job-000000", Key: "k1"},
		{Op: opFailed, ID: "job-000001", Key: "k2", Error: "boom", Kind: "panic"},
	}
	for _, r := range recs {
		if err := j.Append(mustFrame(t, r)); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.Records(); got != uint64(len(recs)) {
		t.Fatalf("Records() = %d, want %d", got, len(recs))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	jobs, torn, quarantined, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 || quarantined != 0 {
		t.Fatalf("torn = %d, quarantined = %d, want 0/0", torn, quarantined)
	}
	if len(jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(jobs))
	}
	// First-submission order, latest op, fields folded across records.
	if jobs[0].ID != "job-000000" || jobs[0].Op != opDone || jobs[0].Cell == nil || jobs[0].Key != "k1" {
		t.Fatalf("job 0 folded wrong: %+v", jobs[0])
	}
	if jobs[1].Op != opFailed || jobs[1].Error != "boom" || jobs[1].Kind != "panic" {
		t.Fatalf("job 1 folded wrong: %+v", jobs[1])
	}

	// The folded cell decodes back to the spec it encoded.
	spec1, _ := testCell(t, 1)
	got, err := jobs[0].Cell.spec()
	if err != nil {
		t.Fatal(err)
	}
	if got.Normalize() != spec1 {
		t.Fatalf("cell round-trip: got %+v want %+v", got.Normalize(), spec1)
	}
}

func TestJournalMissingFileIsEmpty(t *testing.T) {
	jobs, torn, quarantined, err := replayJournal(filepath.Join(t.TempDir(), "nope.wal"))
	if err != nil || torn != 0 || quarantined != 0 || len(jobs) != 0 {
		t.Fatalf("missing journal: jobs=%d torn=%d quarantined=%d err=%v", len(jobs), torn, quarantined, err)
	}
}

func TestJournalDeadlineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	_, cell := testCell(t, 1)
	line := frameLine(t, journalRecord{
		Op: opSubmitted, ID: "job-000000", Key: "k1", Cell: &cell,
		Deadline: "2026-08-08T12:00:00.000000001Z",
	})
	if err := os.WriteFile(path, line, 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, _, _, err := replayJournal(path)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("jobs=%d err=%v", len(jobs), err)
	}
	if jobs[0].Deadline != "2026-08-08T12:00:00.000000001Z" {
		t.Fatalf("deadline did not survive replay: %q", jobs[0].Deadline)
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	_, cell := testCell(t, 1)
	line := frameLine(t, journalRecord{Op: opSubmitted, ID: "job-000000", Key: "k1", Cell: &cell})
	// A complete record followed by a crash-truncated half line.
	torn2 := frameLine(t, journalRecord{Op: opDone, ID: "job-000000", Key: "k1"})
	if err := os.WriteFile(path, append(line, torn2[:len(torn2)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, torn, quarantined, err := replayJournal(path)
	if err != nil {
		t.Fatalf("torn tail should be tolerated, got %v", err)
	}
	if torn != 1 || quarantined != 0 || len(jobs) != 1 || jobs[0].Op != opSubmitted {
		t.Fatalf("jobs=%d torn=%d quarantined=%d", len(jobs), torn, quarantined)
	}
	// A torn tail is not corruption: nothing is quarantined.
	if _, err := os.Stat(path + ".quarantine"); !os.IsNotExist(err) {
		t.Fatalf("torn tail wrote a quarantine file: %v", err)
	}
}

// TestJournalCorruptMidFileQuarantined is the CRC-framing payoff: a
// record corrupted in the middle of the journal (here a flipped byte
// that still leaves the line shaped like a frame) is detected by its
// checksum, quarantined to <path>.quarantine, and replay continues with
// every healthy record on both sides of it.
func TestJournalCorruptMidFileQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	_, cell1 := testCell(t, 1)
	_, cell2 := testCell(t, 2)
	good1 := frameLine(t, journalRecord{Op: opSubmitted, ID: "job-000000", Key: "k1", Cell: &cell1})
	victim := frameLine(t, journalRecord{Op: opSubmitted, ID: "job-000001", Key: "k2", Cell: &cell2})
	good2 := frameLine(t, journalRecord{Op: opDone, ID: "job-000000", Key: "k1"})

	// Flip the low bit of a byte in the middle of the victim's payload
	// (a low-bit flip of printable JSON can never mint a newline, so the
	// line stays one line).
	victim = bytes.Clone(victim)
	victim[len(victim)/2] ^= 0x01

	var content []byte
	content = append(content, good1...)
	content = append(content, victim...)
	content = append(content, good2...)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}

	jobs, torn, quarantined, err := replayJournal(path)
	if err != nil {
		t.Fatalf("mid-file corruption should quarantine, not fail replay: %v", err)
	}
	if quarantined != 1 || torn != 0 {
		t.Fatalf("quarantined=%d torn=%d, want 1/0", quarantined, torn)
	}
	if len(jobs) != 1 || jobs[0].ID != "job-000000" || jobs[0].Op != opDone {
		t.Fatalf("healthy records around the corruption not replayed: %+v", jobs)
	}

	// The corrupt bytes are preserved for post-mortem, not destroyed.
	q, err := os.ReadFile(path + ".quarantine")
	if err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if !bytes.Contains(q, bytes.TrimSuffix(victim, []byte("\n"))) {
		t.Fatal("quarantine file does not contain the corrupt record bytes")
	}
}

// TestJournalCorruptRunBeforeTornTail: several bad lines at EOF — the
// last is the crash-torn tail, the earlier ones are real corruption.
func TestJournalCorruptRunBeforeTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	_, cell := testCell(t, 1)
	good := frameLine(t, journalRecord{Op: opSubmitted, ID: "job-000000", Key: "k1", Cell: &cell})
	bad := frameLine(t, journalRecord{Op: opStarted, ID: "job-000000", Key: "k1"})
	bad = bytes.Clone(bad)
	bad[12] ^= 0xFF
	tail := frameLine(t, journalRecord{Op: opDone, ID: "job-000000", Key: "k1"})

	var content []byte
	content = append(content, good...)
	content = append(content, bad...)
	content = append(content, tail[:len(tail)-5]...)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, torn, quarantined, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 1 || quarantined != 1 || len(jobs) != 1 {
		t.Fatalf("jobs=%d torn=%d quarantined=%d, want 1/1/1", len(jobs), torn, quarantined)
	}
}

func TestJournalSchemaMismatchIgnoredWholesale(t *testing.T) {
	// A framed record under a future schema version, CRC intact.
	path := filepath.Join(t.TempDir(), "journal.wal")
	payload, _ := json.Marshal(journalRecord{Schema: frameSchema + 1, Op: opSubmitted, ID: "job-000000"})
	line := fmt.Appendf(nil, "%08x ", crc32.ChecksumIEEE(payload))
	line = append(line, payload...)
	line = append(line, '\n')
	if err := os.WriteFile(path, line, 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, torn, quarantined, err := replayJournal(path)
	if err != nil || torn != 0 || quarantined != 0 || len(jobs) != 0 {
		t.Fatalf("stale schema: jobs=%d torn=%d quarantined=%d err=%v (want all zero)", len(jobs), torn, quarantined, err)
	}

	// A pre-framing (schema 1) journal of bare JSON lines: also ignored
	// wholesale, never treated as corruption.
	old := filepath.Join(t.TempDir(), "old.wal")
	bare, _ := json.Marshal(journalRecord{Schema: 1, Op: opSubmitted, ID: "job-000000"})
	if err := os.WriteFile(old, append(bare, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, torn, quarantined, err = replayJournal(old)
	if err != nil || torn != 0 || quarantined != 0 || len(jobs) != 0 {
		t.Fatalf("schema-1 journal: jobs=%d torn=%d quarantined=%d err=%v (want all zero)", len(jobs), torn, quarantined, err)
	}
	if _, err := os.Stat(old + ".quarantine"); !os.IsNotExist(err) {
		t.Fatal("a stale-schema journal must not be quarantined as corruption")
	}
}

func TestJournalRotate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, err := OpenJournal(OSFS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	_, cell := testCell(t, 1)
	for i, op := range []journalOp{opSubmitted, opStarted, opDone} {
		if err := j.Append(mustFrame(t, journalRecord{Op: op, ID: "job-000000", Key: "k1", Cell: &cell})); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}

	live := []journalRecord{{Op: opSubmitted, ID: "job-000007", Key: "k7", Cell: &cell}}
	j.mu.Lock()
	err = j.rotateLocked(live)
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// Appends after rotation land in the rotated file.
	if err := j.Append(mustFrame(t, journalRecord{Op: opStarted, ID: "job-000007", Key: "k7"})); err != nil {
		t.Fatal(err)
	}
	j.Close()

	jobs, torn, quarantined, err := replayJournal(path)
	if err != nil || torn != 0 || quarantined != 0 {
		t.Fatalf("replay after rotate: torn=%d quarantined=%d err=%v", torn, quarantined, err)
	}
	if len(jobs) != 1 || jobs[0].ID != "job-000007" || jobs[0].Op != opStarted {
		t.Fatalf("rotated journal replay wrong: %+v", jobs)
	}
}

// TestDoneRecordCarriesEntry: a done record frames its cache entry with
// the result spliced in verbatim — the line is exactly what json.Marshal
// of the whole record would produce — parses back to the same bytes,
// and a flipped result byte fails the CRC.
func TestDoneRecordCarriesEntry(t *testing.T) {
	_, cell := testCell(t, 1)
	result := json.RawMessage(`{"workload":"kmeans","cycles":123}`)
	e := &CacheEntry{Key: "k1", Workload: "kmeans", SimCycles: 123, Result: result,
		Digest: ResultDigest(result), Cell: &cell}
	rec := doneRecord("job-000000", e)
	rec.Seq = 9

	line := frameLine(t, rec)
	rec.Schema = frameSchema
	want, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := line[9 : len(line)-1]; !bytes.Equal(got, want) {
		t.Fatalf("spliced payload differs from json.Marshal:\n got %s\nwant %s", got, want)
	}

	back, ok, stale := parseFrame(line[:len(line)-1])
	if !ok || stale {
		t.Fatalf("done frame does not parse: ok=%v stale=%v", ok, stale)
	}
	if !bytes.Equal(back.Result, result) || back.Digest != e.Digest || back.SimCycles != 123 ||
		back.Workload != "kmeans" || back.Seq != 9 || back.Cell == nil || *back.Cell != cell {
		t.Fatalf("done record did not round-trip: %+v", back)
	}

	flipped := bytes.Clone(line[:len(line)-1])
	flipped[bytes.Index(flipped, []byte("123}"))] ^= 0x01
	if _, ok, _ := parseFrame(flipped); ok {
		t.Fatal("a flipped result byte passed the frame CRC")
	}
}
