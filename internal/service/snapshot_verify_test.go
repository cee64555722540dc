package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestSnapshotDigestVerification: a result corrupted before its image
// frame was sealed is never served. The cache read that meets it fails the
// content-digest re-hash, quarantines the entry (preserved for
// post-mortem, counted, visible on /metrics), and the corrupted cell
// recomputes instead. Healthy entries load and serve normally.
func TestSnapshotDigestVerification(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "cache.snap")

	// First incarnation: settle two cells and persist the image.
	s1, ts1 := newTestServer(t, Config{Workers: 2, SnapshotPath: snapPath})
	_, sr1 := postJob(t, ts1, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":1}`)
	good := waitDone(t, ts1, sr1.Jobs[0].ID)
	_, sr2 := postJob(t, ts1, `{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":2}`)
	victim := waitDone(t, ts1, sr2.Jobs[0].ID)
	if err := s1.Persist(); err != nil {
		t.Fatal(err)
	}

	// Flip one digit of the victim's result bytes and re-seal its frame's
	// CRC: the entry was corrupted before it was framed, so the frame
	// verifies and only the recorded digest can catch it.
	victimKey := []byte(fmt.Sprintf(`"key":%q`, victim.Key))
	frames, tampered := 0, 0
	rewriteFrames(t, snapPath, func(payload []byte) []byte {
		if !bytes.Contains(payload, []byte(`"op":"done"`)) {
			return payload
		}
		frames++
		if !bytes.Contains(payload, victimKey) {
			return payload
		}
		r := bytes.Index(payload, []byte(`"result":`))
		d := r + bytes.IndexAny(payload[r:], "0123456789")
		payload[d] ^= 0x01
		tampered++
		return payload
	})
	if frames != 2 || tampered != 1 {
		t.Fatalf("image has %d done frames (want 2), tampered %d (want 1)", frames, tampered)
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
		t.Fatal("healthy image entry was not served from cache")
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
