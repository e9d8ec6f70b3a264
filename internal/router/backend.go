package router

import (
	"sync"
	"sync/atomic"
	"time"
)

// backend is one llm-serve worker behind the router: its address, the
// router's own view of load on it, and its health state machine.
//
// Health has one rule each way. A backend leaves routing on failure
// evidence, through eject: FailThreshold consecutive failures (failed
// proxy attempts, 5xx replies and failed /healthz probes feed the same
// counter, so a dying worker is noticed at traffic speed, between health
// ticks), or a lease that lapses without renewal. It returns only on
// first-hand liveness, through readmit: a successful probe, a successful
// proxy attempt, or a heartbeat from the worker itself. A peer router's
// record of the lease (adopt) moves the lease clock and never the health
// state — second-hand freshness is not evidence the worker answers here.
type backend struct {
	name string // canonical base URL (httpapi.BaseURL), the ring identity

	// inflight is the router-side count of requests currently proxied to
	// this backend — the always-fresh half of the load signal.
	inflight atomic.Int64

	// Cumulative counters, exported on /v1/stats.
	requests  atomic.Uint64 // proxy attempts sent
	failures  atomic.Uint64 // failed proxy attempts + failed probes
	ejections atomic.Uint64 // healthy -> ejected transitions

	mu      sync.Mutex
	healthy bool
	fails   int // consecutive failures since the last success
	load    int // last polled worker gauge: in_flight + queued

	// Lease state. A worker that registered via /v1/register must renew
	// within ttl of its last heartbeat; past expires the sweep ejects it
	// exactly like a failed probe would, and once it has stayed lapsed for
	// forgetFactor TTLs the membership layer forgets it entirely (removes
	// it from the ring). ttl == 0 is a seed: a -backends member whose lease
	// never expires, which is never gossiped and never forgotten.
	ttl     time.Duration
	expires time.Time
	lapsed  bool // the current lease has expired without renewal

	// Peer-sync state. version orders membership TRANSITIONS for this URL
	// (join, rejoin-after-leave, leave) across routers; it is NOT bumped by
	// renewals, because each router would bump independently and a
	// high-version stale record would then beat a low-version fresh one.
	// Renewal freshness is ordered by renewedAt instead: equal-version
	// records merge by most-recent renewal, carried between routers as an
	// age (duration since renewal) so wall-clock skew cancels out.
	version   uint64
	renewedAt time.Time
}

// newBackend makes the member for a base URL already canonical under
// httpapi.BaseURL.
func newBackend(name string) *backend {
	// Optimistically healthy: a cold router must route before its first
	// probe tick, and a wrong guess self-corrects within FailThreshold
	// attempts.
	return &backend{name: name, healthy: true}
}

// endpoint returns the worker URL for path (e.g. "/v1/generate").
func (b *backend) endpoint(path string) string { return b.name + path }

// ejectLocked takes the backend out of routing on failure evidence.
func (b *backend) ejectLocked() {
	if b.healthy {
		b.healthy = false
		b.ejections.Add(1)
	}
}

// readmitLocked puts the backend back into routing on first-hand liveness.
func (b *backend) readmitLocked() {
	b.fails = 0
	b.healthy = true
}

// markFailure records one failed attempt or probe against the backend and
// ejects it once threshold consecutive failures accumulate.
func (b *backend) markFailure(threshold int) {
	b.failures.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.fails >= threshold {
		b.ejectLocked()
	}
}

// markSuccess readmits the backend after a successful probe or relay.
func (b *backend) markSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.readmitLocked()
}

func (b *backend) isHealthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

// renew grants or renews the backend's registration lease from a
// first-hand heartbeat. A heartbeat is the worker's own liveness signal, so
// it always applies and readmits an ejected backend the same way a
// successful probe does — which is also what bounds a rejoining worker's
// readmission time to one register round-trip.
func (b *backend) renew(ttl time.Duration, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ttl, b.expires, b.lapsed, b.renewedAt = ttl, now.Add(ttl), false, now
	b.readmitLocked()
}

// adopt applies a peer router's record of this member's lease. It takes
// effect only if the record is newer than the one on the books: a higher
// transition version, or the same version renewed strictly later (both
// routers heard the same incarnation; the later heartbeat wins). The
// expiry is computed from the renewal instant at the ORIGIN router
// (eventAt = the peer's age translated into this router's clock, so skew
// cancels). A record moves the lease clock only: a lease still running on
// arrival clears lapsed, so the next expiry is swept and counted again, but
// health is never touched — an ejected member stays ejected until a probe,
// a relay or its own heartbeat readmits it here.
func (b *backend) adopt(version uint64, ttl time.Duration, eventAt, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if version < b.version || (version == b.version && !eventAt.After(b.renewedAt)) {
		return
	}
	b.version, b.ttl, b.expires, b.renewedAt = version, ttl, eventAt.Add(ttl), eventAt
	if b.expires.After(now) {
		b.lapsed = false
	}
}

// lease reads the member's transition version and granted TTL (0 for a
// seed).
func (b *backend) lease() (version uint64, ttl time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.version, b.ttl
}

// syncRecord renders the member for a peer-sync exchange. Seed members are
// not gossiped (ok=false): they are configuration, not observed state.
func (b *backend) syncRecord(now time.Time) (rec syncRecord, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ttl == 0 {
		return syncRecord{}, false
	}
	return syncRecord{
		URL:     b.name,
		Version: b.version,
		LeaseMS: b.ttl.Milliseconds(),
		AgeMS:   now.Sub(b.renewedAt).Milliseconds(),
	}, true
}

// expireIfDue checks the lease against now. On the first sweep past the
// expiry it marks the lease lapsed and ejects the backend (one ejection,
// like crossing FailThreshold); newly reports that transition. forget
// reports that the lease has been lapsed for more than forgetFactor TTLs
// and no probe has readmitted the backend meanwhile — the probe guard means
// a live worker whose heartbeats broke degrades to probe-governed health
// instead of being silently dropped mid-service.
func (b *backend) expireIfDue(now time.Time) (newly, forget bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ttl == 0 || now.Before(b.expires) {
		return false, false
	}
	if !b.lapsed {
		b.lapsed = true
		newly = true
		b.ejectLocked()
	}
	return newly, now.Sub(b.expires) > forgetFactor*b.ttl && !b.healthy
}

// leaseInfo snapshots the lease state for /v1/stats.
func (b *backend) leaseInfo(now time.Time) (leased bool, remainingMS int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ttl == 0 {
		return false, 0
	}
	return true, b.expires.Sub(now).Milliseconds()
}

// setLoad records the worker-reported queue gauge from a stats poll.
func (b *backend) setLoad(load int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.load = load
}

// score is the routing load signal: the router's own in-flight count plus
// the worker's last-polled queue gauge. The first half is exact and
// instantaneous; the second folds in load the worker sees from elsewhere
// (other routers, direct clients) at health-tick freshness.
func (b *backend) score() int {
	b.mu.Lock()
	load := b.load
	b.mu.Unlock()
	return int(b.inflight.Load()) + load
}
