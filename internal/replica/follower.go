// Package replica runs the follower half of asfd's warm-standby
// replication: a sync loop that bootstraps from the primary's bootstrap
// batch, then long-polls its journal stream and applies each batch of
// CRC-framed, digest-verified records into the local server.
//
// The loop owns no correctness: every integrity check (frame CRC,
// entry content digest, sequence continuity) lives in the service
// layer's ApplyReplicatedBatch / ApplyReplicatedBootstrap, so a corrupt
// or torn stream is refused there no matter who drives the sync. The
// loop's job is steering — when to bootstrap, when to retry, when to
// stop (the server was promoted out from under it, or Stop was called).
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// Config configures a follower sync loop.
type Config struct {
	// PrimaryURL is the primary's base URL, e.g. "http://10.0.0.1:8080".
	PrimaryURL string

	// Server is the local warm standby (booted with
	// service.Config.Following) that replicated state is applied into.
	Server *service.Server

	// Client is the HTTP client for stream/snapshot requests. Its
	// Timeout must exceed Wait or every long poll dies early; leave it
	// zero and the follower manages per-request timeouts itself.
	Client *http.Client

	// Wait is the long-poll window per stream request (default 5s).
	Wait time.Duration

	// MaxFrames bounds one stream batch (default 512).
	MaxFrames int

	// Backoff is the pause after a transport error or a refused batch
	// before re-requesting (default 500ms). Corruption refusals re-fetch
	// the same sequence — the primary's log still has the good bytes.
	Backoff time.Duration

	// Logger receives sync-loop events (nil = discard).
	Logger *obs.Logger
}

// Follower is a running sync loop. Stop it before promoting the local
// server, or let promotion stop it: the loop exits on its own when the
// server reports ErrNotFollowing.
type Follower struct {
	cfg    Config
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	lastErr   error
	batches   uint64
	snapshots uint64
}

// Start begins syncing from the primary and returns immediately. The
// first snapshot bootstrap happens inside the loop, so a follower can
// start before its primary is reachable and converge when it appears.
func Start(cfg Config) (*Follower, error) {
	if cfg.PrimaryURL == "" {
		return nil, errors.New("replica: PrimaryURL required")
	}
	if cfg.Server == nil {
		return nil, errors.New("replica: Server required")
	}
	if cfg.Wait <= 0 {
		cfg.Wait = 5 * time.Second
	}
	if cfg.MaxFrames <= 0 {
		cfg.MaxFrames = 512
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 500 * time.Millisecond
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NewLogger(io.Discard, obs.LevelError, false, nil)
	}

	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{cfg: cfg, cancel: cancel, done: make(chan struct{})}
	go f.run(ctx)
	return f, nil
}

// Stop halts the sync loop and waits for it to exit. Safe to call more
// than once, and after the loop already stopped itself.
func (f *Follower) Stop() {
	f.cancel()
	<-f.done
}

// Done is closed when the sync loop has exited (Stop called, or the
// local server was promoted).
func (f *Follower) Done() <-chan struct{} { return f.done }

// Err returns the most recent sync error, nil after a healthy batch.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastErr
}

func (f *Follower) note(err error) {
	f.mu.Lock()
	f.lastErr = err
	f.mu.Unlock()
}

// run is the sync loop: stream from the local apply cursor, fall back
// to a snapshot on a gap, back off on errors, exit on promotion.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	srv, log := f.cfg.Server, f.cfg.Logger
	for {
		if ctx.Err() != nil {
			return
		}
		if !srv.Following() {
			log.Info("replica sync loop exiting: server promoted")
			return
		}

		// Self-healing: a follower cannot re-execute a cell, so when the
		// local scrubber has quarantined entries the repair path is a
		// fresh digest-verified bootstrap batch from the primary.
		if n := srv.AuditRepairPending(); n > 0 {
			log.Info("audit repair pending, re-syncing from snapshot", "keys", n)
			if serr := f.syncSnapshot(ctx); serr != nil {
				if ctx.Err() != nil {
					return
				}
				f.note(serr)
				log.Warn("audit repair snapshot re-sync failed", "err", serr)
				if !f.sleep(ctx) {
					return
				}
				continue
			}
		}

		batch, err := f.fetchBatch(ctx, srv.ReplNextApply())
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			f.note(err)
			log.Warn("replication stream fetch failed", "err", err)
			if !f.sleep(ctx) {
				return
			}
			continue
		}

		applied, err := srv.ApplyReplicatedBatch(*batch)
		switch {
		case err == nil:
			f.note(nil)
			if applied > 0 {
				f.mu.Lock()
				f.batches++
				f.mu.Unlock()
			}
		case errors.Is(err, service.ErrReplGap):
			log.Info("replication gap, re-syncing from snapshot",
				"have", srv.ReplNextApply())
			if serr := f.syncSnapshot(ctx); serr != nil {
				if ctx.Err() != nil {
					return
				}
				f.note(serr)
				log.Warn("snapshot re-sync failed", "err", serr)
				if !f.sleep(ctx) {
					return
				}
			}
		case errors.Is(err, service.ErrNotFollowing):
			log.Info("replica sync loop exiting: server promoted")
			return
		default:
			// Corruption (or another refusal): nothing was applied, the
			// cursor did not move — back off and re-fetch the same range.
			f.note(err)
			log.Warn("replicated batch refused", "err", err)
			if !f.sleep(ctx) {
				return
			}
		}
	}
}

func (f *Follower) fetchBatch(ctx context.Context, from uint64) (*service.ReplBatch, error) {
	url := fmt.Sprintf("%s/v1/replication/stream?from=%d&wait=%d&max=%d",
		f.cfg.PrimaryURL, from, f.cfg.Wait.Milliseconds(), f.cfg.MaxFrames)
	// The request outlives the long-poll window by a margin, never hangs
	// forever on a wedged primary.
	batch, err := f.get(ctx, url, f.cfg.Wait+10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("replica: stream: %w", err)
	}
	return &batch, nil
}

func (f *Follower) syncSnapshot(ctx context.Context) error {
	batch, err := f.get(ctx, f.cfg.PrimaryURL+"/v1/replication/snapshot", 60*time.Second)
	if err != nil {
		return fmt.Errorf("replica: snapshot: %w", err)
	}
	applied, err := f.cfg.Server.ApplyReplicatedBootstrap(batch.Frames)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.snapshots++
	f.mu.Unlock()
	f.note(nil)
	f.cfg.Logger.Info("snapshot re-sync applied",
		"entries", strconv.Itoa(applied), "resumeSeq", strconv.FormatUint(f.cfg.Server.ReplNextApply(), 10))
	return nil
}

// get issues one replication GET with its own timeout and reads the
// response as a batch.
func (f *Follower) get(ctx context.Context, url string, timeout time.Duration) (service.ReplBatch, error) {
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err != nil {
		return service.ReplBatch{}, err
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return service.ReplBatch{}, err
	}
	return service.ReadReplBatch(resp)
}

// sleep pauses for the configured backoff; false means the loop was
// stopped while sleeping.
func (f *Follower) sleep(ctx context.Context) bool {
	t := time.NewTimer(f.cfg.Backoff)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
