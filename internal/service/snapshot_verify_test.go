package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSnapshotDigestVerification: a result silently corrupted at rest in
// the snapshot is never served. The cache read that meets it fails the
// content-digest re-hash, quarantines the entry (preserved for
// post-mortem, counted, visible on /metrics), and the corrupted cell
// recomputes instead. Healthy entries load and serve normally.
func TestSnapshotDigestVerification(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "cache.json")

	// First incarnation: settle two cells and persist the snapshot.
	s1, ts1 := newTestServer(t, Config{Workers: 2, SnapshotPath: snapPath})
	_, sr1 := postJob(t, ts1, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":1}`)
	good := waitDone(t, ts1, sr1.Jobs[0].ID)
	_, sr2 := postJob(t, ts1, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":2}`)
	victim := waitDone(t, ts1, sr2.Jobs[0].ID)
	if err := s1.Persist(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the victim's result bytes on disk without touching its
	// recorded digest — a lying disk, not a truncated file.
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		SchemaVersion int          `json:"schemaVersion"`
		Entries       []CacheEntry `json:"entries"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(snap.Entries))
	}
	victimIdx := -1
	for i := range snap.Entries {
		if snap.Entries[i].Key == victim.Key {
			victimIdx = i
		}
	}
	if victimIdx < 0 {
		t.Fatalf("victim key %s not in snapshot", victim.Key)
	}
	tampered := bytes.Replace(snap.Entries[victimIdx].Result, []byte(`"cycles"`), []byte(`"cycLes"`), 1)
	if bytes.Equal(tampered, snap.Entries[victimIdx].Result) {
		t.Fatal("tamper did not change the result bytes")
	}
	snap.Entries[victimIdx].Result = tampered
	out, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, out, 0o644); err != nil {
		t.Fatal(err)
	}

	// Second incarnation: both entries load; nothing has read them yet.
	s2, ts2 := newTestServer(t, Config{Workers: 2, SnapshotPath: snapPath})
	if n := s2.Cache().Len(); n != 2 {
		t.Fatalf("reloaded cache holds %d entries, want 2", n)
	}

	// The healthy entry is served from the reloaded cache...
	_, hit := postJob(t, ts2, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":1}`)
	hitView := waitDone(t, ts2, hit.Jobs[0].ID)
	if !hitView.CacheHit {
		t.Fatal("healthy snapshot entry was not served from cache")
	}
	var a, b bytes.Buffer
	if err := json.Compact(&a, hitView.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, good.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("healthy entry's bytes changed across reload")
	}

	// ...while the tampered cell recomputes rather than serving the
	// corrupted bytes, and determinism makes the recomputation match the
	// original.
	_, re := postJob(t, ts2, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":2}`)
	reView := waitDone(t, ts2, re.Jobs[0].ID)
	if reView.CacheHit {
		t.Fatal("tampered entry was served from cache")
	}
	a.Reset()
	b.Reset()
	if err := json.Compact(&a, reView.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, victim.Result); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("recomputed result differs from the original computation")
	}

	// The read that met the tampered entry counted and quarantined it.
	m := getMetrics(t, ts2)
	if m.ScrubCorruptions != 1 || m.AuditMismatches != 1 {
		t.Fatalf("scrubCorruptions = %d, auditMismatches = %d, want 1/1", m.ScrubCorruptions, m.AuditMismatches)
	}
	q, err := os.ReadFile(snapPath + ".audit-quarantine")
	if err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if !bytes.Contains(q, []byte(victim.Key)) {
		t.Fatal("quarantine file does not record the tampered entry")
	}
}
