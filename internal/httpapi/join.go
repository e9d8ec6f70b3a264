// Dynamic-membership client side: the wire types for the router's
// /v1/register and /v1/deregister endpoints, and the Joiner — the worker's
// self-registration loop. A worker started with -join announces itself to
// the router, heartbeats to keep its lease alive (register and heartbeat
// are the same call), and deregisters explicitly when it drains, so the
// fleet can grow, shrink, and replace crashed workers without restarting
// the router.
//
// With replicated routers (-join takes a comma-separated list) the Joiner
// runs one independent heartbeat loop per router: each router's view of
// this worker is first-hand — the fast path of router membership, next to
// the routers' periodic anti-entropy — any subset of routers being down
// degrades nothing as long as one is reachable, and a router that restarts
// from empty relearns the worker within one heartbeat interval without
// help from its peers. Leave fans the deregister out to every router, each
// with its own bounded retry, so a single unreachable router cannot stall
// a drain — its peers tombstone the worker and gossip the leave to it at
// their next anti-entropy exchange.

package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/failpoint"
)

// RegisterRequest is the POST /v1/register body: the worker's advertised
// base URL and the lease TTL it wants. A zero LeaseMS asks for the
// router's default; the router clamps either way and echoes the grant.
type RegisterRequest struct {
	URL     string `json:"url"`
	LeaseMS int64  `json:"lease_ms,omitempty"`
}

// RegisterResponse acknowledges a register/heartbeat: the membership epoch
// after the call, the granted lease, and whether the call created a new
// member (false on renewals).
type RegisterResponse struct {
	Epoch   uint64 `json:"epoch"`
	LeaseMS int64  `json:"lease_ms"`
	Created bool   `json:"created"`
}

// DeregisterRequest is the POST /v1/deregister body: the base URL of the
// member leaving the fleet.
type DeregisterRequest struct {
	URL string `json:"url"`
}

// DeregisterResponse acknowledges a deregistration; Removed is false when
// the member was already gone (the call is idempotent).
type DeregisterResponse struct {
	Epoch   uint64 `json:"epoch"`
	Removed bool   `json:"removed"`
}

// JoinConfig configures a worker's self-registration loop.
type JoinConfig struct {
	// Routers lists every router base URL (e.g. http://127.0.0.1:8370) the
	// worker registers with and heartbeats (BaseURLs).
	Routers []string
	// Self is the base URL this worker advertises as reachable (BaseURL).
	Self string
	// Lease is the TTL requested per register call (default 15s).
	Lease time.Duration
	// Interval is the heartbeat period (default Lease/3, so a renewal can
	// miss twice before the lease lapses).
	Interval time.Duration
	// Logf, when non-nil, receives state-transition logs (joined, the
	// first failed register of each outage, re-joined) — not one line per
	// heartbeat.
	Logf func(format string, args ...any)
}

// Joiner keeps one worker registered with a set of routers until stopped.
type Joiner struct {
	cfg     JoinConfig
	routers []string
	// client times calls out at 5s: control-plane calls are tiny, and one
	// must never hang a heartbeat slot.
	client *http.Client
	quit   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
}

// BaseURL is the rule every fleet base URL follows (a worker's, a router's,
// a peer's): surrounding spaces trimmed, one trailing "/" dropped, and a
// scheme and a host required. The result is the spelling membership keys
// on.
func BaseURL(raw string) (string, error) {
	s := strings.TrimSuffix(strings.TrimSpace(raw), "/")
	u, err := url.Parse(s)
	if err != nil {
		return "", fmt.Errorf("httpapi: bad base URL %q: %w", raw, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return "", fmt.Errorf("httpapi: base URL %q needs a scheme and a host", raw)
	}
	return s, nil
}

// BaseURLs applies BaseURL to a configured list, in order, dropping blank
// entries (a split comma-separated flag passes as it is) and duplicates.
func BaseURLs(raw []string) ([]string, error) {
	var out []string
	for _, r := range raw {
		if strings.TrimSpace(r) == "" {
			continue
		}
		s, err := BaseURL(r)
		if err != nil {
			return nil, err
		}
		if !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	return out, nil
}

// JitteredBackoff spreads a nominal backoff uniformly over [d/2, d]. Pure
// doubling would march every caller that failed at the same moment through
// identical sleep schedules, synchronizing their retries into bursts; the
// half-width jitter decorrelates them while keeping the expected wait
// within 25% of nominal.
func JitteredBackoff(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + rand.N(d-half+1)
}

// joinRouters applies the BaseURL rule to the routers, which it needs at
// least one of, and to self. Duplicates are dropped: a worker must never
// run two heartbeat loops at one router.
func joinRouters(cfg JoinConfig) (routers []string, self string, err error) {
	if routers, err = BaseURLs(cfg.Routers); err != nil {
		return nil, "", err
	}
	if len(routers) == 0 {
		return nil, "", errors.New("httpapi: join needs a router URL")
	}
	if self, err = BaseURL(cfg.Self); err != nil {
		return nil, "", err
	}
	return routers, self, nil
}

// StartJoiner registers the worker and keeps its leases renewed, one
// background heartbeat loop per router so a slow or dead router cannot
// delay renewals at the others. The first register per router is attempted
// inline with the same retry policy as later ones, but errors do not fail
// the start: a worker that boots before its routers retries until they
// appear, with jittered exponential backoff. A URL that breaks the BaseURL
// rule is an error: no heartbeat could ever reach it.
func StartJoiner(cfg JoinConfig) (*Joiner, error) {
	routers, self, err := joinRouters(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Self = self
	if cfg.Lease <= 0 {
		cfg.Lease = 15 * time.Second
	}
	if cfg.Interval <= 0 {
		cfg.Interval = cfg.Lease / 3
	}
	j := &Joiner{
		cfg: cfg, routers: routers, quit: make(chan struct{}),
		client: &http.Client{Timeout: 5 * time.Second},
	}
	for _, r := range routers {
		j.wg.Add(1)
		go j.loop(r)
	}
	return j, nil
}

func (j *Joiner) logf(format string, args ...any) {
	if j.cfg.Logf != nil {
		j.cfg.Logf(format, args...)
	}
}

// loop heartbeats one router until Stop. Success sleeps one Interval;
// failure retries on a jittered exponential backoff starting well under
// the interval (a worker racing its router's startup should not idle a
// whole heartbeat period) and capped at it (a dead router must not push
// the retry period past the lease). Each router gets its own loop and its
// own backoff state, so losing one router leaves the heartbeat cadence at
// the others untouched. The first failed register of each outage is logged,
// whether or not the router had been joined, so a router that never answers
// is not silent.
func (j *Joiner) loop(router string) {
	defer j.wg.Done()
	const minBackoff = 5 * time.Millisecond
	backoff := j.cfg.Interval / 4
	if backoff < minBackoff {
		backoff = minBackoff
	}
	base := backoff
	joined, failing := false, false
	for {
		err := j.registerOnce(router)
		var sleep time.Duration
		if err == nil {
			if !joined {
				j.logf("joined router %s (lease %v, heartbeat %v)", router, j.cfg.Lease, j.cfg.Interval)
			}
			joined, failing = true, false
			backoff = base
			sleep = j.cfg.Interval
		} else {
			if joined {
				j.logf("lost router %s: %v (retrying)", router, err)
			} else if !failing {
				j.logf("cannot register with router %s: %v (retrying)", router, err)
			}
			joined, failing = false, true
			sleep = JitteredBackoff(backoff)
			backoff *= 2
			if backoff > j.cfg.Interval {
				backoff = j.cfg.Interval
			}
		}
		select {
		case <-j.quit:
			return
		case <-time.After(sleep):
		}
	}
}

// registerOnce issues one register/heartbeat call to one router.
func (j *Joiner) registerOnce(router string) error {
	if err := failpoint.Inject(failpoint.JoinHeartbeat); err != nil {
		return err
	}
	body, _ := json.Marshal(RegisterRequest{URL: j.cfg.Self, LeaseMS: j.cfg.Lease.Milliseconds()})
	resp, err := j.client.Post(router+"/v1/register", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("httpapi: register: router answered %d", resp.StatusCode)
	}
	return nil
}

// Stop halts the heartbeat loops without deregistering — the leases are
// left to expire, which is what an ungraceful death looks like. Idempotent.
func (j *Joiner) Stop() {
	j.once.Do(func() { close(j.quit) })
	j.wg.Wait()
}

// leaveAttempts bounds the per-router deregister retry in Leave. The
// deregister is a courtesy — an unreachable router tombstones the worker
// via lease lapse or a peer's gossip anyway — so the retry is short: it
// papers over a transient blip without letting one dead router stall a
// drain for long.
const leaveAttempts = 3

// Leave is the graceful exit: stop heartbeating (waiting out any in-flight
// register so a stale heartbeat cannot resurrect the membership after the
// deregister lands), then tell every router to drop this worker now
// instead of waiting out the lease. Routers are notified concurrently,
// each with its own bounded retry; the joined error reports every router
// that could not be reached within the budget.
func (j *Joiner) Leave(ctx context.Context) error {
	j.Stop()
	errs := make([]error, len(j.routers))
	var wg sync.WaitGroup
	for i, r := range j.routers {
		wg.Add(1)
		go func(i int, router string) {
			defer wg.Done()
			errs[i] = j.leaveOne(ctx, router)
		}(i, r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// leaveOne deregisters from one router, retrying up to leaveAttempts with
// a short doubling backoff (ctx cancellation cuts it short).
func (j *Joiner) leaveOne(ctx context.Context, router string) error {
	var err error
	backoff := 25 * time.Millisecond
	for attempt := 0; attempt < leaveAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return fmt.Errorf("httpapi: deregister %s: %w (last error: %w)", router, ctx.Err(), err)
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		if err = j.deregisterOnce(ctx, router); err == nil {
			return nil
		}
	}
	return fmt.Errorf("httpapi: deregister %s: %w", router, err)
}

// deregisterOnce issues one deregister call to one router.
func (j *Joiner) deregisterOnce(ctx context.Context, router string) error {
	body, _ := json.Marshal(DeregisterRequest{URL: j.cfg.Self})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, router+"/v1/deregister", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := j.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("router answered %d", resp.StatusCode)
	}
	return nil
}
