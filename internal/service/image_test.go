package service

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
)

// newServer starts a server for a test that drives it in-process and
// ends it with Kill.
func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// rewriteFrames applies edit to every frame line of the file at path and
// re-seals each line's CRC over its edited payload, so the frames still
// verify.
func rewriteFrames(t *testing.T, path string, edit func(payload []byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if len(line) < 10 {
			out = append(out, line...)
			continue
		}
		payload := edit(bytes.TrimSuffix(line[9:], []byte("\n")))
		out = fmt.Appendf(out, "%08x %s\n", crc32.ChecksumIEEE(payload), payload)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCacheSnapshotRoundTrip: every cache entry, and the LRU order, survive
// Persist and a new server on the same image.
func TestCacheSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")

	s1 := newServer(t, Config{Workers: 1, SnapshotPath: path})
	for i := 0; i < 5; i++ {
		s1.Cache().Put(entry(fmt.Sprintf("k%d", i), fmt.Sprintf(`{"i":%d}`, i)))
	}
	s1.Cache().Get("k1") // k1 becomes the most recently used
	if err := s1.Persist(); err != nil {
		t.Fatal(err)
	}
	want := s1.Cache().Keys()
	s1.Kill()

	s2 := newServer(t, Config{Workers: 1, SnapshotPath: path})
	defer s2.Kill()
	if got := s2.Cache().Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded LRU order %v, want %v", got, want)
	}
	for i := 0; i < 5; i++ {
		e, ok := s2.Cache().Get(fmt.Sprintf("k%d", i))
		if !ok {
			t.Fatalf("k%d missing after reload", i)
		}
		if want := fmt.Sprintf(`{"i":%d}`, i); string(e.Result) != want {
			t.Fatalf("k%d bytes = %s, want %s", i, e.Result, want)
		}
	}

	// Missing image: clean first boot, not an error.
	s3 := newServer(t, Config{Workers: 1, SnapshotPath: filepath.Join(dir, "absent.snap")})
	defer s3.Kill()
	if n := s3.Cache().Len(); n != 0 {
		t.Fatalf("missing image loaded %d entries", n)
	}
}

// TestCacheSnapshotSchemaGuard: a key-schema bump makes every persisted
// and streamed frame stale — the image and the journal are ignored
// wholesale (their addresses name different computations), never
// treated as corruption, and a replication batch is refused.
func TestCacheSnapshotSchemaGuard(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers:      1,
		SnapshotPath: filepath.Join(dir, "cache.snap"),
		JournalPath:  filepath.Join(dir, "journal.wal"),
	}
	s1 := newServer(t, cfg)
	s1.Cache().Put(entry("k", `{}`))
	if err := s1.Persist(); err != nil {
		t.Fatal(err)
	}
	_, cell := testCell(t, 1)
	s1.record("", journalRecord{Op: opSubmitted, ID: "job-000005", Key: "k2", Cell: &cell})
	batch, _, _, err := s1.bootstrapBatch()
	if err != nil {
		t.Fatal(err)
	}
	s1.Kill()

	bump := func(payload []byte) []byte {
		return bytes.Replace(payload,
			[]byte(fmt.Sprintf(`"schema":%d`, frameSchema)),
			[]byte(fmt.Sprintf(`"schema":%d`, journalSchemaVersion*100+keySchemaVersion+1)), 1)
	}
	rewriteFrames(t, cfg.SnapshotPath, bump)
	rewriteFrames(t, cfg.JournalPath, bump)

	s2 := newServer(t, cfg)
	defer s2.Kill()
	if n := s2.Cache().Len(); n != 0 {
		t.Fatalf("stale-schema image loaded %d entries, want 0", n)
	}
	if rec := s2.Recovery(); rec != (RecoveryStats{}) {
		t.Fatalf("stale-schema journal replayed: %+v", rec)
	}
	if aside, _ := filepath.Glob(filepath.Join(dir, "*.corrupt-*")); len(aside) != 0 {
		t.Fatalf("stale files were set aside as corruption: %v", aside)
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "*.quarantine")); len(q) != 0 {
		t.Fatalf("stale frames were quarantined as corruption: %v", q)
	}

	stale := filepath.Join(dir, "batch")
	if err := os.WriteFile(stale, batch, 0o644); err != nil {
		t.Fatal(err)
	}
	rewriteFrames(t, stale, bump)
	staleBatch, _ := os.ReadFile(stale)
	if _, err := decodeFrames(staleBatch); err == nil {
		t.Fatal("a stale-schema replication batch decoded")
	}
}

// TestImageCorruptFrameQuarantined: a frame failing its CRC in the middle
// of a complete image is quarantined record by record, as the journal
// does it: every other entry loads, and the bad line is preserved in
// <image>.quarantine rather than costing the whole image.
func TestImageCorruptFrameQuarantined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	s1 := newServer(t, Config{Workers: 1, SnapshotPath: path})
	for i := 0; i < 3; i++ {
		s1.Cache().Put(entry(fmt.Sprintf("k%d", i), fmt.Sprintf(`{"i":%d}`, i)))
	}
	if err := s1.Persist(); err != nil {
		t.Fatal(err)
	}
	s1.Kill()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	victim := lines[1] // k1's done frame, between k0's and k2's
	if !bytes.Contains(victim, []byte(`"key":"k1"`)) {
		t.Fatalf("frame 1 is not k1's: %s", victim)
	}
	victim[len(victim)/2] ^= 0x01
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newServer(t, Config{Workers: 1, SnapshotPath: path})
	defer s2.Kill()
	if got := s2.Cache().Keys(); !reflect.DeepEqual(got, []string{"k2", "k0"}) {
		t.Fatalf("loaded keys %v, want [k2 k0]", got)
	}
	if q := s2.Recovery().Quarantined; q != 1 {
		t.Fatalf("quarantined %d frames, want 1", q)
	}
	q, err := os.ReadFile(path + ".quarantine")
	if err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if !bytes.Equal(q, victim) {
		t.Fatalf("quarantine holds %q, want the corrupt frame %q", q, victim)
	}
	if m, _ := filepath.Glob(path + ".corrupt-*"); len(m) != 0 {
		t.Fatalf("a complete image was set aside whole: %v", m)
	}
}

// TestImageIsBootstrapBody: the file Persist writes is byte-identical to
// the GET /v1/replication/snapshot body taken with no writes in between —
// cache entries, live jobs and the closing checkpoint alike.
func TestImageIsBootstrapBody(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	running := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s, ts := newTestServer(t, Config{
		Workers:      1,
		SnapshotPath: path,
		JournalPath:  filepath.Join(dir, "journal.wal"),
		BeforeRun: func(spec harness.CellSpec) {
			if spec.Seed == 2 {
				once.Do(func() { close(running) })
				<-release
			}
		},
	})
	defer close(release)

	_, done := postJob(t, ts, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":1}`)
	waitDone(t, ts, done.Jobs[0].ID)
	postJob(t, ts, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":2}`)
	<-running // the second job is live, held inside its run

	if err := s.Persist(); err != nil {
		t.Fatal(err)
	}
	body := fetchSnapshot(t, ts)
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image, body) {
		t.Fatalf("image differs from the bootstrap body:\nimage %s\nbody  %s", image, body)
	}
	recs, err := decodeFrames(image)
	if err != nil {
		t.Fatal(err)
	}
	var ops []journalOp
	for _, rec := range recs {
		ops = append(ops, rec.Op)
	}
	if want := []journalOp{opDone, opSubmitted, opCheckpoint}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("image frames %v, want %v", ops, want)
	}
}

// renameHookFS runs hook when a temp file is renamed over target, once
// per token sent on armed.
type renameHookFS struct {
	FS
	target string
	armed  chan struct{}
	hook   func()
}

func (f *renameHookFS) Rename(oldname, newname string) error {
	if newname == f.target {
		select {
		case <-f.armed:
			f.hook()
		default:
		}
	}
	return f.FS.Rename(oldname, newname)
}

// TestPersistKeepsJobFinishedDuringCompaction: a job submitted and
// finished while Persist commits the image must survive a crash. The
// compaction holds the journal from its gather to its rotation, so the
// job's records land in the rotated journal instead of being compacted
// away with the old one.
func TestPersistKeepsJobFinishedDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers:      1,
		SnapshotPath: filepath.Join(dir, "cache.snap"),
		JournalPath:  filepath.Join(dir, "journal.wal"),
	}
	spec, _ := testCell(t, 1)
	var s *Server
	var job *Job
	finished := make(chan struct{})
	fs := &renameHookFS{FS: OSFS{}, target: cfg.SnapshotPath, armed: make(chan struct{}, 1)}
	fs.hook = func() {
		go func() {
			defer close(finished)
			j, err := s.Submit(spec)
			if err != nil {
				t.Error(err)
				return
			}
			<-j.Done
			job = j
		}()
		// The submit may be waiting on the journal this compaction holds:
		// give it a while, never forever.
		select {
		case <-finished:
		case <-time.After(time.Second):
		}
	}
	cfg.FS = fs
	s = newServer(t, cfg)
	fs.armed <- struct{}{}
	if err := s.Persist(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("the job submitted during compaction never finished")
	}
	if job == nil {
		t.FailNow()
	}
	s.Kill()

	cfg.FS = nil
	s2 := newServer(t, cfg)
	defer s2.Kill()
	if _, ok := s2.Lookup(job.ID); !ok {
		t.Fatalf("job %s is unknown after restart (recovery %+v)", job.ID, s2.Recovery())
	}
	_, cached := s2.Cache().peek(job.Key)
	if !cached && s2.Recovery().Reenqueued == 0 {
		t.Fatalf("job %s's cell is neither cached nor re-enqueued (recovery %+v)", job.ID, s2.Recovery())
	}
}
