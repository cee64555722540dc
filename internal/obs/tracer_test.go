package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic, manually advanced clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestTracerRecordAndQuery(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracer(64, clk.Now)

	start := clk.Now()
	clk.Advance(5 * time.Millisecond)
	tr.Record("t1", "admission", start, clk.Now(), "priority", "interactive")
	s2 := clk.Now()
	clk.Advance(20 * time.Millisecond)
	tr.Record("t1", "execute", s2, clk.Now(), "workload", "kmeans")
	tr.Record("t2", "admission", s2, s2)

	spans := tr.Trace("t1")
	if len(spans) != 2 {
		t.Fatalf("trace t1 has %d spans, want 2", len(spans))
	}
	if spans[0].Name != "admission" || spans[1].Name != "execute" {
		t.Fatalf("span order/names wrong: %q, %q", spans[0].Name, spans[1].Name)
	}
	if got := spans[0].Duration(); got != 5*time.Millisecond {
		t.Fatalf("admission duration = %v, want 5ms", got)
	}
	if spans[1].Attrs["workload"] != "kmeans" {
		t.Fatalf("execute attrs = %v", spans[1].Attrs)
	}
	if got := len(tr.Trace("t2")); got != 1 {
		t.Fatalf("trace t2 has %d spans, want 1", got)
	}
	if tr.Trace("nope") != nil {
		t.Fatal("unknown trace returned spans")
	}

	rec, drop := tr.Counters()
	if rec != 3 || drop != 0 {
		t.Fatalf("counters = (%d, %d), want (3, 0)", rec, drop)
	}
}

func TestTracerRingWraparound(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracer(10, clk.Now) // rounds up to 16
	if got := tr.Capacity(); got != 16 {
		t.Fatalf("capacity = %d, want 16", got)
	}
	for i := 0; i < 40; i++ {
		tr.Record("t", fmt.Sprintf("span-%d", i), clk.Now(), clk.Now())
	}
	spans := tr.Spans()
	if len(spans) != 16 {
		t.Fatalf("ring retains %d spans, want 16", len(spans))
	}
	// Oldest retained is span-24 (40 recorded, last 16 kept), in order.
	for i, s := range spans {
		if want := fmt.Sprintf("span-%d", 24+i); s.Name != want {
			t.Fatalf("slot %d = %q, want %q", i, s.Name, want)
		}
	}
	rec, drop := tr.Counters()
	if rec != 40 || drop != 24 {
		t.Fatalf("counters = (%d, %d), want (40, 24)", rec, drop)
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tr := NewTracer(128, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Record(fmt.Sprintf("g%d", g), "op", time.Now(), time.Now())
				if i%50 == 0 {
					tr.Spans() // concurrent reads must never see torn spans
				}
			}
		}(g)
	}
	wg.Wait()
	rec, _ := tr.Counters()
	if rec != 8*500 {
		t.Fatalf("recorded %d spans, want %d", rec, 8*500)
	}
	for _, s := range tr.Spans() {
		if s.Name != "op" {
			t.Fatalf("torn span: %+v", s)
		}
	}
}

// TestTracerTraceMatchesSpans: Trace(id) returns exactly the spans of id
// that filtering Spans() would, in Seq order, while writers wrap the ring
// under it and once they have stopped.
func TestTracerTraceMatchesSpans(t *testing.T) {
	tr := NewTracer(64, nil)
	ids := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for g, id := range ids {
		wg.Add(1)
		go func(g int, id string) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				tr.Record(id, "op", time.Now(), time.Now())
				if i%40 == g {
					got := tr.Trace(id)
					for k, s := range got {
						if s.Trace != id || (k > 0 && s.Seq <= got[k-1].Seq) {
							t.Errorf("Trace(%q) under writers: span %d = %+v", id, k, s)
							return
						}
					}
				}
			}
		}(g, id)
	}
	wg.Wait()
	for _, id := range append(ids, "absent") {
		var want []Span
		for _, s := range tr.Spans() {
			if s.Trace == id {
				want = append(want, s)
			}
		}
		if got := tr.Trace(id); !reflect.DeepEqual(got, want) {
			t.Errorf("Trace(%q) = %d spans, filtering Spans() gives %d", id, len(got), len(want))
		}
	}
}

// BenchmarkTracerTrace looks up one request's spans in a full ring of the
// size the server and the client use.
func BenchmarkTracerTrace(b *testing.B) {
	tr := NewTracer(16384, nil)
	now := time.Now()
	for i := 0; i < 16384; i++ {
		tr.Record(fmt.Sprintf("trace-%d", i%2048), "op", now, now)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tr.Trace("trace-7")) != 8 {
			b.Fatal("lost spans")
		}
	}
}

func TestTracerSummaries(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracer(64, clk.Now)

	t0 := clk.Now()
	tr.Record("slow", "a", t0, t0.Add(2*time.Millisecond))
	tr.Record("slow", "b", t0.Add(2*time.Millisecond), t0.Add(30*time.Millisecond))
	tr.Record("fast", "a", t0, t0.Add(1*time.Millisecond))

	all := tr.Summaries(0)
	if len(all) != 2 {
		t.Fatalf("summaries = %d, want 2", len(all))
	}
	if all[0].Trace != "slow" || all[0].Spans != 2 || all[0].DurationMs != 30 {
		t.Fatalf("first summary = %+v, want slow/2 spans/30ms", all[0])
	}
	filtered := tr.Summaries(10 * time.Millisecond)
	if len(filtered) != 1 || filtered[0].Trace != "slow" {
		t.Fatalf("min filter kept %+v, want only slow", filtered)
	}
}

func TestTracerStartSpanAndEvent(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracer(16, clk.Now)
	sp := tr.StartSpan("t", "work")
	clk.Advance(7 * time.Millisecond)
	sp.End("k", "v")
	tr.Event("t", "mark")
	spans := tr.Trace("t")
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Duration() != 7*time.Millisecond || spans[0].Attrs["k"] != "v" {
		t.Fatalf("StartSpan/End span = %+v", spans[0])
	}
	if spans[1].Duration() != 0 {
		t.Fatalf("event span has nonzero duration: %v", spans[1].Duration())
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Record("t", "x", time.Now(), time.Now())
	tr.Event("t", "x")
	tr.StartSpan("t", "x").End()
	if tr.Spans() != nil || tr.Trace("t") != nil || tr.Summaries(0) != nil {
		t.Fatal("nil tracer returned spans")
	}
	if rec, drop := tr.Counters(); rec != 0 || drop != 0 {
		t.Fatal("nil tracer has counters")
	}
	if tr.Capacity() != 0 {
		t.Fatal("nil tracer has capacity")
	}
	if NewTracer(0, nil) != nil {
		t.Fatal("capacity 0 should build the disabled (nil) tracer")
	}
}

func TestTracerWriteJSONL(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracer(16, clk.Now)
	tr.Record("t", "a", clk.Now(), clk.Now().Add(time.Millisecond), "k", "v")
	tr.Record("t", "b", clk.Now(), clk.Now())
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d is not a span: %v", lines, err)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("dumped %d lines, want 2", lines)
	}
}

func TestIDGenDeterministicAndDistinct(t *testing.T) {
	a, b := NewIDGen(42), NewIDGen(42)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		ida := a.Next()
		if idb := b.Next(); ida != idb {
			t.Fatalf("same-seed generators diverged at %d: %s vs %s", i, ida, idb)
		}
		if len(ida) != 16 {
			t.Fatalf("id %q is not 16 hex chars", ida)
		}
		if seen[ida] {
			t.Fatalf("duplicate id %s", ida)
		}
		seen[ida] = true
	}
}
