package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The integrity subsystem's decoders sit on the blast radius of at-rest
// corruption: journal lines, replication frames, and client-supplied
// cell specs all arrive as untrusted bytes. The contract under fuzzing
// is uniform — decoders ERROR on garbage, they never panic — plus the
// canonical round-trip invariants the audit scrubber leans on.

// FuzzJournalDecode throws arbitrary bytes at the journal frame parser,
// both as a single line and as a multi-line journal body (the shape the
// scrubber and replay walk). parseFrame must never panic, must never
// report a frame as both ok and stale, and any line it accepts must
// re-frame to the same CRC.
func FuzzJournalDecode(f *testing.F) {
	if fr, err := frameRecord(journalRecord{Op: opDone, ID: "job-7", Key: "abc"}); err == nil {
		f.Add(bytes.TrimSuffix(fr.appendTo(nil), []byte("\n")))
	}
	f.Add([]byte(`00000000 {"schema":2,"op":"done","id":"job-1"}`))
	f.Add([]byte(`{"schema":1,"op":"submitted","id":"job-0"}`))
	f.Add([]byte("deadbeef "))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, ok, stale := parseFrame(data)
		if ok && stale {
			t.Fatalf("frame reported both ok and stale: %q", data)
		}
		if ok {
			// An accepted frame re-encodes to an identical, verifiable line.
			fr, err := frameRecord(rec)
			if err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
			line := fr.appendTo(nil)
			if _, ok2, _ := parseFrame(bytes.TrimSuffix(line, []byte("\n"))); !ok2 {
				t.Fatalf("re-framed record does not verify: %q", line)
			}
		}
		// The multi-line walk the scrubber and replay share.
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			parseFrame(line)
		}
	})
}

// FuzzReplicationFrame throws arbitrary bytes at the batch decoder that
// reads stream and bootstrap responses. decodeFrames must never panic,
// and a batch it accepts must re-frame, record by record, into a batch
// that decodes to the same sequence numbers, ops and result bytes.
func FuzzReplicationFrame(f *testing.F) {
	done := journalRecord{Seq: 1, Op: opDone, ID: "job-1", Key: "abc", Workload: "kmeans",
		SimCycles: 42, Result: json.RawMessage(`{"cycles":42}`)}
	done.Digest = ResultDigest(done.Result)
	if fr, err := frameRecord(done); err == nil {
		line := fr.appendTo(nil)
		f.Add(line)
		flipped := bytes.Clone(line)
		flipped[bytes.Index(flipped, []byte("42}"))] ^= 0x01
		f.Add(flipped)
	}
	f.Add([]byte("00000000 {}\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := decodeFrames(data)
		if err != nil {
			return
		}
		var body []byte
		for _, rec := range recs {
			fr, err := frameRecord(rec)
			if err != nil {
				t.Fatalf("accepted record does not re-encode: %v", err)
			}
			body = fr.appendTo(body)
		}
		back, err := decodeFrames(body)
		if err != nil {
			t.Fatalf("re-framed batch does not verify: %v", err)
		}
		if len(back) != len(recs) {
			t.Fatalf("re-framed batch has %d records, want %d", len(back), len(recs))
		}
		for i := range recs {
			if back[i].Seq != recs[i].Seq || back[i].Op != recs[i].Op || !bytes.Equal(back[i].Result, recs[i].Result) {
				t.Fatalf("record %d changed across a re-frame:\n got %+v\nwant %+v", i, back[i], recs[i])
			}
		}
	})
}

// FuzzCellSpecParse decodes arbitrary JSON as a JobRequest and runs the
// full spec parse/validate path, then the canonical-cell round trip the
// audit scrubber depends on: any spec the server accepts must survive
// encodeCell → spec() with its content address intact, or repair would
// re-execute the wrong cell.
func FuzzCellSpecParse(f *testing.F) {
	f.Add([]byte(`{"workload":"kmeans","detection":"subblock-4","scale":"tiny","seed":1,"cores":8}`))
	f.Add([]byte(`{"workload":"genome","detection":"baseline","scale":"small","retryPolicy":"backoff-capped"}`))
	f.Add([]byte(`{"workload":"_","scale":"galactic","cores":-1}`))
	f.Add([]byte(`{"faultInterruptRate":1e308,"maxCycles":-9223372036854775808}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var jr JobRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		if dec.Decode(&jr) != nil {
			return
		}
		spec, err := jr.Spec()
		if err != nil {
			return
		}
		norm := spec.Normalize()
		key := Key(norm)
		cell := encodeCell(norm)
		back, err := cell.spec()
		if err != nil {
			t.Fatalf("accepted spec does not round-trip through canonicalCell: %v", err)
		}
		if got := Key(back.Normalize()); got != key {
			t.Fatalf("canonical round trip moved the content address: %s -> %s", key, got)
		}
	})
}
