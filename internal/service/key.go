// Package service is the simulation-as-a-service layer behind cmd/asfd:
// an HTTP daemon that accepts experiment-cell jobs, runs them on a
// bounded worker pool over the deterministic harness, and serves repeat
// requests from a content-addressed result cache. Because every cell is
// a pure function of its normalized spec (the simulator's determinism
// contract), cached results are exact — a repeat sweep over the paper's
// experiment matrix is pure cache hits with zero simulated cycles.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	asfsim "repro"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// keySchemaVersion is bumped whenever the canonical cell encoding below
// changes meaning, invalidating every previously persisted cache entry
// (a stale image must never serve a result for a different run). It is
// folded into frameSchema, so a bump makes every persisted frame stale.
const keySchemaVersion = 1

// canonicalCell is the canonical wire form a cell key is hashed from.
// Canonicalization rules (documented in EXPERIMENTS.md "Serving"):
//
//  1. The spec is normalized first (harness.CellSpec.Normalize): Seed 0
//     becomes 1, Cores 0 becomes 8, MaxRetries 0 becomes 64 — an omitted
//     field and its explicit default hash identically.
//  2. Enumerations are encoded as their canonical names (detection
//     "subblock-4", scale "small", retry policy "exponential"), never as
//     ordinals, so the key survives enum reordering.
//  3. Every field is explicit — including zeros — and the struct field
//     order is frozen; adding a knob requires a schema-version bump.
//  4. Nested policy knobs left at 0 mean "the policy's default" and hash
//     as 0: the worst case of not folding those defaults is a duplicate
//     cache miss, never a wrong hit.
type canonicalCell struct {
	V         int    `json:"v"`
	Workload  string `json:"workload"`
	Detection string `json:"detection"`
	Scale     string `json:"scale"`
	Seed      uint64 `json:"seed"`
	Cores     int    `json:"cores"`

	MaxRetries int   `json:"maxRetries"`
	MaxCycles  int64 `json:"maxCycles"`

	FaultInterruptRate float64 `json:"faultInterruptRate"`
	FaultTLBRate       float64 `json:"faultTlbRate"`
	FaultCapacityRate  float64 `json:"faultCapacityRate"`

	RetryPolicy       string  `json:"retryPolicy"`
	RetryMaxRetries   int     `json:"retryMaxRetries"`
	BackoffBase       int64   `json:"backoffBase"`
	BackoffMax        int64   `json:"backoffMax"`
	BackoffJitter     float64 `json:"backoffJitter"`
	SerializeAfter    int     `json:"serializeAfter"`
	DemoteAbortRate   float64 `json:"demoteAbortRate"`
	DemoteMinAttempts int     `json:"demoteMinAttempts"`

	WatchdogWindow        int64 `json:"watchdogWindow"`
	WatchdogMitigate      bool  `json:"watchdogMitigate"`
	WatchdogStarveWindows int64 `json:"watchdogStarveWindows"`
}

// encodeCell renders a spec in its canonical wire form — the encoding
// the content address is hashed from, and (since the journal stores it
// verbatim) the encoding a recovering daemon re-enqueues jobs from.
func encodeCell(spec harness.CellSpec) canonicalCell {
	s := spec.Normalize()
	return canonicalCell{
		V:         keySchemaVersion,
		Workload:  s.Workload,
		Detection: s.Detection.String(),
		Scale:     s.Scale.String(),
		Seed:      s.Seed,
		Cores:     s.Cores,

		MaxRetries: s.MaxRetries,
		MaxCycles:  s.MaxCycles,

		FaultInterruptRate: s.Fault.InterruptRate,
		FaultTLBRate:       s.Fault.TLBRate,
		FaultCapacityRate:  s.Fault.CapacityNoiseRate,

		RetryPolicy:       s.Retry.Kind.String(),
		RetryMaxRetries:   s.Retry.MaxRetries,
		BackoffBase:       s.Retry.Backoff.BaseCycles,
		BackoffMax:        s.Retry.Backoff.MaxCycles,
		BackoffJitter:     s.Retry.Backoff.Jitter,
		SerializeAfter:    s.Retry.SerializeAfter,
		DemoteAbortRate:   s.Retry.DemoteAbortRate,
		DemoteMinAttempts: s.Retry.DemoteMinAttempts,

		WatchdogWindow:        s.Watchdog.Window,
		WatchdogMitigate:      s.Watchdog.Mitigate,
		WatchdogStarveWindows: s.Watchdog.StarveWindows,
	}
}

// spec decodes a canonical cell back into a harness spec — the inverse
// of encodeCell, used when replaying the job journal. Enumerations go
// back through the same parsers the HTTP API and CLIs use, so a record
// naming an enum this build no longer knows fails loudly instead of
// silently running a different system.
func (c canonicalCell) spec() (harness.CellSpec, error) {
	var spec harness.CellSpec
	spec.Workload = c.Workload
	d, err := asfsim.ParseDetection(c.Detection)
	if err != nil {
		return spec, err
	}
	spec.Detection = d
	sc, err := workloads.ParseScale(c.Scale)
	if err != nil {
		return spec, err
	}
	spec.Scale = sc
	spec.Seed = c.Seed
	spec.Cores = c.Cores
	spec.MaxRetries = c.MaxRetries
	spec.MaxCycles = c.MaxCycles
	spec.Fault = asfsim.FaultConfig{
		InterruptRate:     c.FaultInterruptRate,
		TLBRate:           c.FaultTLBRate,
		CapacityNoiseRate: c.FaultCapacityRate,
	}
	kind, err := asfsim.ParseRetryPolicy(c.RetryPolicy)
	if err != nil {
		return spec, err
	}
	spec.Retry.Kind = kind
	spec.Retry.MaxRetries = c.RetryMaxRetries
	spec.Retry.Backoff.BaseCycles = c.BackoffBase
	spec.Retry.Backoff.MaxCycles = c.BackoffMax
	spec.Retry.Backoff.Jitter = c.BackoffJitter
	spec.Retry.SerializeAfter = c.SerializeAfter
	spec.Retry.DemoteAbortRate = c.DemoteAbortRate
	spec.Retry.DemoteMinAttempts = c.DemoteMinAttempts
	spec.Watchdog = asfsim.WatchdogConfig{
		Window:        c.WatchdogWindow,
		Mitigate:      c.WatchdogMitigate,
		StarveWindows: c.WatchdogStarveWindows,
	}
	return spec, spec.Validate()
}

// Key returns the content address of a cell: the hex SHA-256 of the
// canonical encoding of the normalized spec. Two specs get the same key
// iff the simulator is guaranteed to produce bit-identical results for
// them, which is what makes serving from the cache exact.
func Key(spec harness.CellSpec) string {
	c := encodeCell(spec)
	raw, err := json.Marshal(c)
	if err != nil {
		// canonicalCell contains only plain scalar fields; Marshal cannot
		// fail on it.
		panic("service: canonical cell encoding failed: " + err.Error())
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
