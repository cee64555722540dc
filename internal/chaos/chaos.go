// Package chaos is the deterministic fault-injection harness for the
// asfd service: a seeded schedule of worker panics and filesystem
// failures, wired into the daemon through the same small interfaces
// production uses (service.Config.FS and service.Config.BeforeRun). The
// soak test drives a server through submission bursts, cancellation
// storms, injected panics, journal write failures, and in-process
// kill/restart cycles, and asserts the durability contract: every
// accepted job is eventually completed exactly once or reported failed,
// and no injected fault ever takes the daemon down.
//
// All randomness comes from the repo's own deterministic generator
// (internal/rng), so a failing soak reproduces from its seed alone.
package chaos

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/harness"
	"repro/internal/rng"
	"repro/internal/service"
)

// Config sets the per-event injection probabilities. Zero values mean
// "never"; each probability is consulted independently per opportunity.
type Config struct {
	// PanicRate is the probability that a cell execution panics at the
	// worker's BeforeRun hook (inside the recover barrier).
	PanicRate float64

	// WriteFailRate / PartialWriteRate / SyncFailRate apply per
	// journal-or-image file operation; a partial write delivers the
	// first half of the buffer and then fails, leaving a torn line for
	// replay to tolerate.
	WriteFailRate    float64
	PartialWriteRate float64
	SyncFailRate     float64

	// RenameFailRate applies to the atomic-replace rename that commits a
	// image or journal rotation.
	RenameFailRate float64

	// FlipRate is the lying-disk fault: the write succeeds from the
	// caller's point of view — full length, no error, sync fine — but
	// one byte of the buffer is silently flipped on its way down. No
	// error path fires, so only content self-checks (the journal's
	// per-record CRC, the entries' content digests) can catch it.
	FlipRate float64
}

// Counts are the injections actually delivered.
type Counts struct {
	Panics        uint64
	WriteFails    uint64
	PartialWrites uint64
	SyncFails     uint64
	RenameFails   uint64
	Flips         uint64
}

// Schedule is a seeded fault plan. It is safe for concurrent use; the
// daemon's workers and flusher consult it concurrently. Injection
// classes are armed and disarmed per test phase (panics during the
// churn phases, filesystem faults during the degraded-mode phase) so
// each phase proves one property.
type Schedule struct {
	mu     sync.Mutex
	r      *rng.Rand
	cfg    Config
	fsOn   bool
	panics bool
	counts Counts
	logw   io.Writer
}

// NewSchedule builds a schedule from a seed. Events are logged one per
// line to logw (pass io.Discard to drop them); the soak test points it
// at the chaos log file CI uploads on failure.
func NewSchedule(seed uint64, cfg Config, logw io.Writer) *Schedule {
	if logw == nil {
		logw = io.Discard
	}
	return &Schedule{r: rng.New(seed), cfg: cfg, logw: logw}
}

// ArmPanics enables or disables panic injection.
func (s *Schedule) ArmPanics(on bool) {
	s.mu.Lock()
	s.panics = on
	s.mu.Unlock()
	s.Logf("panics armed=%v", on)
}

// ArmFS enables or disables filesystem fault injection.
func (s *Schedule) ArmFS(on bool) {
	s.mu.Lock()
	s.fsOn = on
	s.mu.Unlock()
	s.Logf("fs faults armed=%v", on)
}

// Counts returns the injections delivered so far.
func (s *Schedule) Counts() Counts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts
}

// Logf appends one timeline line to the chaos log.
func (s *Schedule) Logf(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.logw, format+"\n", args...)
}

// BeforeRun is the worker-side injection point: install it as
// service.Config.BeforeRun. It panics (inside the worker's recover
// barrier) with probability PanicRate while panics are armed.
func (s *Schedule) BeforeRun(spec harness.CellSpec) {
	s.mu.Lock()
	fire := s.panics && s.r.Bool(s.cfg.PanicRate)
	if fire {
		s.counts.Panics++
	}
	n := s.counts.Panics
	s.mu.Unlock()
	if fire {
		s.Logf("inject panic #%d workload=%s detection=%s", n, spec.Workload, spec.Detection)
		panic(fmt.Sprintf("chaos: injected worker panic #%d", n))
	}
}

// roll consults one probability under the lock, bumping the matching
// counter when it fires.
func (s *Schedule) roll(p float64, counter *uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.fsOn || !s.r.Bool(p) {
		return false
	}
	*counter++
	return true
}

// WrapFS wraps a filesystem with the schedule's fault injection:
// install the result as service.Config.FS. Reads always pass through —
// recovery must be able to replay what chaos let the daemon write — and
// faults are injected only on the write side (create, write, sync,
// rename), which is exactly the failure surface a full disk or a dying
// device presents.
func (s *Schedule) WrapFS(inner service.FS) service.FS {
	return &faultyFS{inner: inner, s: s}
}

type faultyFS struct {
	inner service.FS
	s     *Schedule
}

func (f *faultyFS) Create(name string) (service.File, error) {
	if f.s.roll(f.s.cfg.WriteFailRate, &f.s.counts.WriteFails) {
		f.s.Logf("inject create failure %s", name)
		return nil, fmt.Errorf("chaos: injected create failure for %s", name)
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{inner: file, name: name, s: f.s}, nil
}

func (f *faultyFS) Open(name string) (service.File, error) { return f.inner.Open(name) }

func (f *faultyFS) Append(name string) (service.File, error) {
	file, err := f.inner.Append(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{inner: file, name: name, s: f.s}, nil
}

func (f *faultyFS) Rename(oldname, newname string) error {
	if f.s.roll(f.s.cfg.RenameFailRate, &f.s.counts.RenameFails) {
		f.s.Logf("inject rename failure %s -> %s", oldname, newname)
		return fmt.Errorf("chaos: injected rename failure for %s", newname)
	}
	return f.inner.Rename(oldname, newname)
}

func (f *faultyFS) Remove(name string) error { return f.inner.Remove(name) }

type faultyFile struct {
	inner service.File
	name  string
	s     *Schedule
}

func (f *faultyFile) Read(p []byte) (int, error) { return f.inner.Read(p) }

func (f *faultyFile) Write(p []byte) (int, error) {
	if f.s.roll(f.s.cfg.WriteFailRate, &f.s.counts.WriteFails) {
		f.s.Logf("inject write failure %s", f.name)
		return 0, fmt.Errorf("chaos: injected write failure for %s", f.name)
	}
	if f.s.roll(f.s.cfg.PartialWriteRate, &f.s.counts.PartialWrites) {
		half := len(p) / 2
		n, _ := f.inner.Write(p[:half])
		f.s.Logf("inject partial write %s (%d of %d bytes)", f.name, n, len(p))
		return n, fmt.Errorf("chaos: injected partial write for %s", f.name)
	}
	if len(p) > 2 && f.s.roll(f.s.cfg.FlipRate, &f.s.counts.Flips) {
		// The lying disk: flip one byte mid-buffer and report complete
		// success. The low-bit flip of a non-newline byte can never mint
		// a '\n', so the corruption stays inside one journal line.
		bad := append([]byte(nil), p...)
		i := len(bad) / 2
		if bad[i] == '\n' {
			i--
		}
		bad[i] ^= 0x01
		f.s.Logf("inject silent byte flip %s (offset %d)", f.name, i)
		n, err := f.inner.Write(bad)
		if n > len(p) {
			n = len(p)
		}
		return n, err
	}
	return f.inner.Write(p)
}

func (f *faultyFile) Sync() error {
	if f.s.roll(f.s.cfg.SyncFailRate, &f.s.counts.SyncFails) {
		f.s.Logf("inject sync failure %s", f.name)
		return fmt.Errorf("chaos: injected sync failure for %s", f.name)
	}
	return f.inner.Sync()
}

func (f *faultyFile) Close() error { return f.inner.Close() }
