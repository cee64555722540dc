// Package obs is the serving stack's zero-dependency observability
// toolkit: span-based request tracing over a fixed-capacity lock-free
// ring buffer, log-bucketed latency histograms, ring-buffer time-series
// history for gauges, and a leveled trace-aware structured logger.
//
// The paper this repo reproduces is an empirical study — its value is
// measurement — and this package brings the same discipline to the
// serving stack itself: when a fleet sweep is slow, a trace says where
// the time went (admission, queue wait, cache lookup, journal fsync,
// machine reset, execution), not just that it went.
//
// Everything here is built to be free when off: every exported method
// is safe on a nil receiver and does nothing, so call sites gate on a
// single pointer nil-check and the disabled configuration adds zero
// allocations to hot paths (enforced for the simulator by the
// benchjson -alloc-threshold CI gate).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed, named operation attributed to a trace. Spans are
// immutable once recorded; readers of the ring always observe fully
// written spans (the ring stores them behind atomic pointers).
type Span struct {
	// Trace is the request's trace ID (the X-ASF-Trace value). Spans
	// recorded by server-internal activity that belongs to no request
	// (snapshot flushes, for example) use a well-known pseudo-trace ID
	// such as "server".
	Trace string `json:"trace"`

	// Name identifies the stage: server stages use the fixed vocabulary
	// "admission", "queue", "cache", "singleflight", "journal",
	// "execute" (with "execute.<phase>" sub-spans), "respond",
	// "snapshot"; client spans use "route", "failover", "rpc",
	// "hedge.win", "hedge.lose", "retry.wait", "retry.exhausted",
	// "resubmit".
	Name string `json:"name"`

	Start time.Time `json:"start"`
	End   time.Time `json:"end"`

	// Attrs carries small key/value annotations (endpoint, cache
	// hit/miss, job ID, status). Nil when the span has none.
	Attrs map[string]string `json:"attrs,omitempty"`

	// Seq is the tracer-global record sequence number — a total order
	// over spans that does not depend on clock resolution.
	Seq uint64 `json:"seq"`
}

// Duration returns the span's elapsed time.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Tracer records spans into a fixed-capacity lock-free ring buffer:
// writers claim a slot with one atomic add and publish the span with
// one atomic pointer store, so tracing never blocks the request path
// and memory use is bounded no matter how long the daemon runs. When
// the ring wraps, the oldest spans are overwritten (and counted as
// dropped).
//
// A nil *Tracer is a valid "tracing disabled" tracer: every method
// no-ops, so call sites need no separate enabled flag.
type Tracer struct {
	clock func() time.Time
	slots []atomic.Pointer[Span]
	mask  uint64
	head  atomic.Uint64 // next sequence number to claim
}

// NewTracer builds a tracer whose ring holds capacity spans (rounded up
// to a power of two, minimum 16). clock injects the time source; nil
// means time.Now. A zero or negative capacity returns nil — the
// disabled tracer.
func NewTracer(capacity int, clock func() time.Time) *Tracer {
	if capacity <= 0 {
		return nil
	}
	n := 16
	for n < capacity {
		n <<= 1
	}
	if clock == nil {
		clock = time.Now
	}
	return &Tracer{clock: clock, slots: make([]atomic.Pointer[Span], n), mask: uint64(n - 1)}
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Capacity returns the ring size (0 when disabled).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return len(t.slots)
}

// Now returns the tracer's clock reading (the zero time when disabled).
func (t *Tracer) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.clock()
}

// Record stores one completed span. attrs are alternating key, value
// pairs; a trailing odd key is ignored. Safe for concurrent use.
func (t *Tracer) Record(trace, name string, start, end time.Time, attrs ...string) {
	if t == nil {
		return
	}
	var m map[string]string
	if len(attrs) >= 2 {
		m = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			m[attrs[i]] = attrs[i+1]
		}
	}
	seq := t.head.Add(1) - 1
	t.slots[seq&t.mask].Store(&Span{
		Trace: trace,
		Name:  name,
		Start: start,
		End:   end,
		Attrs: m,
		Seq:   seq,
	})
}

// Event records an instantaneous span (start == end == now).
func (t *Tracer) Event(trace, name string, attrs ...string) {
	if t == nil {
		return
	}
	now := t.clock()
	t.Record(trace, name, now, now, attrs...)
}

// ActiveSpan is an in-progress span started with StartSpan; End
// records it. The zero value (from a nil tracer) is inert.
type ActiveSpan struct {
	t     *Tracer
	trace string
	name  string
	start time.Time
}

// StartSpan opens a span at the tracer's clock; call End to record it.
func (t *Tracer) StartSpan(trace, name string) ActiveSpan {
	if t == nil {
		return ActiveSpan{}
	}
	return ActiveSpan{t: t, trace: trace, name: name, start: t.clock()}
}

// End records the span with the given attributes. No-op on the zero
// ActiveSpan.
func (a ActiveSpan) End(attrs ...string) {
	if a.t == nil {
		return
	}
	a.t.Record(a.trace, a.name, a.start, a.t.clock(), attrs...)
}

// Counters returns the lifetime number of spans recorded and the number
// already overwritten by ring wraparound.
func (t *Tracer) Counters() (recorded, dropped uint64) {
	if t == nil {
		return 0, 0
	}
	recorded = t.head.Load()
	if n := uint64(len(t.slots)); recorded > n {
		dropped = recorded - n
	}
	return recorded, dropped
}

// Spans returns a point-in-time snapshot of the ring, oldest first.
// Slots written concurrently with the snapshot may or may not be
// included; every returned span is complete.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.collect(make([]Span, 0, len(t.slots)), func(*Span) bool { return true })
}

// Trace returns the retained spans of one trace ID, oldest first (nil
// when none survive in the ring). It copies and sorts only that trace's
// spans, not the whole ring.
func (t *Tracer) Trace(id string) []Span {
	if t == nil {
		return nil
	}
	return t.collect(nil, func(s *Span) bool { return s.Trace == id })
}

// collect appends the ring's spans that keep accepts to out, oldest
// first.
func (t *Tracer) collect(out []Span, keep func(*Span) bool) []Span {
	for i := range t.slots {
		if p := t.slots[i].Load(); p != nil && keep(p) {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// TraceSummary is one trace's envelope: its span count and the wall
// interval from its earliest span start to its latest span end.
type TraceSummary struct {
	Trace      string    `json:"trace"`
	Spans      int       `json:"spans"`
	Start      time.Time `json:"start"`
	End        time.Time `json:"end"`
	DurationMs float64   `json:"durationMs"`
}

// Summaries groups the retained spans by trace ID and returns one
// summary per trace whose envelope duration is at least min, slowest
// first (ties broken by trace ID for determinism).
func (t *Tracer) Summaries(min time.Duration) []TraceSummary {
	if t == nil {
		return nil
	}
	byTrace := make(map[string]*TraceSummary)
	for _, s := range t.Spans() {
		sum, ok := byTrace[s.Trace]
		if !ok {
			sum = &TraceSummary{Trace: s.Trace, Start: s.Start, End: s.End}
			byTrace[s.Trace] = sum
		}
		sum.Spans++
		if s.Start.Before(sum.Start) {
			sum.Start = s.Start
		}
		if s.End.After(sum.End) {
			sum.End = s.End
		}
	}
	out := make([]TraceSummary, 0, len(byTrace))
	for _, sum := range byTrace {
		d := sum.End.Sub(sum.Start)
		if d < min {
			continue
		}
		sum.DurationMs = float64(d) / float64(time.Millisecond)
		out = append(out, *sum)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DurationMs != out[j].DurationMs {
			return out[i].DurationMs > out[j].DurationMs
		}
		return out[i].Trace < out[j].Trace
	})
	return out
}

// WriteJSONL dumps the retained spans as JSON lines, oldest first — the
// format the chaos harness uploads as a CI artifact when a soak fails.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	for _, s := range t.Spans() {
		b, err := json.Marshal(s)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// IDGen mints trace IDs: 16 lowercase hex characters from a seeded
// splitmix64 stream, so tests get reproducible IDs and production
// clients (seeded from the wall clock) get effectively unique ones.
type IDGen struct {
	mu    sync.Mutex
	state uint64
}

// NewIDGen returns a generator seeded with seed.
func NewIDGen(seed uint64) *IDGen { return &IDGen{state: seed} }

// Next returns the next trace ID. Safe for concurrent use.
func (g *IDGen) Next() string {
	g.mu.Lock()
	g.state += 0x9e3779b97f4a7c15
	z := g.state
	g.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return fmt.Sprintf("%016x", z)
}
