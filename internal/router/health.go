package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/failpoint"
)

// workerGauges is the slice of the worker's /v1/stats the router reads: the
// live load gauges serve.Stats exports (cumulative counters are ignored).
type workerGauges struct {
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
}

// healthLoop actively probes every backend each HealthInterval: /healthz
// decides readiness (a draining worker answers 503 and is ejected exactly
// like a dead one), and — for ready workers — /v1/stats refreshes the load
// gauge behind least-loaded placement and backpressure. The loop is also
// the readmission path: passive detection can only observe backends that
// receive traffic, so an ejected, idle backend re-enters service via its
// next successful probe here. Each tick also sweeps registration leases —
// a worker that stopped heartbeating is ejected when its lease lapses and
// forgotten (removed from the ring) once it has stayed lapsed for
// forgetFactor TTLs with probes failing too.
func (rt *Router) healthLoop() {
	defer rt.hwg.Done()
	ticker := time.NewTicker(rt.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.quit:
			return
		case <-ticker.C:
			expired, forgotten := rt.mem.sweep(time.Now())
			rt.nExpiries.Add(uint64(expired))
			rt.nForgotten.Add(uint64(forgotten))
			rt.probeAll()
		}
	}
}

// probeAll checks the whole fleet concurrently and returns when every probe
// finishes, so one wedged backend cannot delay the others' freshness.
func (rt *Router) probeAll() {
	members, _ := rt.mem.snapshot()
	var wg sync.WaitGroup
	for _, b := range members {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			rt.probeOne(b)
		}(b)
	}
	wg.Wait()
}

// exchangeTimeout bounds one round-trip of a periodic loop — a probe or a
// peer-sync exchange — at the loop's interval, clamped so very short test
// intervals do not flake and long intervals do not let a black-holed
// worker or peer stall the loop.
func exchangeTimeout(interval time.Duration) time.Duration {
	return min(max(interval, 100*time.Millisecond), 2*time.Second)
}

func (rt *Router) probeOne(b *backend) {
	if err := failpoint.Inject(failpoint.RouterProbe); err != nil {
		// An injected probe failure drives the ejection machinery without
		// touching the worker — how the chaos harness measures recovery.
		b.markFailure(rt.cfg.FailThreshold)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), exchangeTimeout(rt.cfg.HealthInterval))
	defer cancel()
	if !rt.getOK(ctx, b.endpoint("/healthz"), nil) {
		b.markFailure(rt.cfg.FailThreshold)
		return
	}
	b.markSuccess()
	var g workerGauges
	if rt.getOK(ctx, b.endpoint("/v1/stats"), &g) {
		b.setLoad(g.InFlight + g.Queued)
	}
}

// getOK issues one GET and reports whether it returned 200, decoding the
// body into out when non-nil.
func (rt *Router) getOK(ctx context.Context, url string, out any) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	if out == nil {
		return true
	}
	return json.NewDecoder(resp.Body).Decode(out) == nil
}

// Stats is the router's observability surface, served on its /v1/stats.
type Stats struct {
	Requests uint64 `json:"requests"`  // generation requests received
	Proxied  uint64 `json:"proxied"`   // answered with an upstream response
	Retries  uint64 `json:"retries"`   // extra placement attempts
	Shed     uint64 `json:"shed"`      // 429 admission/backpressure rejections
	Rejected uint64 `json:"rejected"`  // 503 drain/no-backend rejections
	Errors   uint64 `json:"errors"`    // exhausted retries, broken streams, panics
	InFlight int    `json:"in_flight"` // live gauge
	Draining bool   `json:"draining"`

	// Membership counters: the epoch stamps the current (members, ring)
	// version; the rest count fleet transitions since start.
	Epoch         uint64 `json:"epoch"`
	Members       int    `json:"members"`
	Joins         uint64 `json:"joins"`          // new members (register or peer sync)
	Leaves        uint64 `json:"leaves"`         // removals (deregister or peer sync)
	LeaseExpiries uint64 `json:"lease_expiries"` // leases lapsed without renewal
	Forgotten     uint64 `json:"forgotten"`      // lapsed members swept from the ring

	// Router-HA state. RingDigest hashes the member set (sorted URLs): two
	// routers with equal digests have converged on the same membership and
	// therefore the same ring and placement — epochs are local rebuild
	// counters and legitimately differ. Converged is the readiness gate
	// /healthz applies alongside backend health.
	RingDigest string      `json:"ring_digest"`
	Converged  bool        `json:"converged"`
	SyncRounds uint64      `json:"sync_rounds,omitempty"` // anti-entropy rounds completed
	SyncsIn    uint64      `json:"syncs_in,omitempty"`    // /v1/sync exchanges served
	Peers      []PeerStats `json:"peers,omitempty"`

	Backends []BackendStats `json:"backends"`
}

// PeerStats is one peer router's sync view.
type PeerStats struct {
	URL      string `json:"url"`
	Syncs    uint64 `json:"syncs"`    // successful exchanges initiated here
	Failures uint64 `json:"failures"` // failed exchanges
	// LastOKMS is how long ago the last successful exchange finished, in
	// milliseconds; -1 when no exchange has succeeded yet.
	LastOKMS int64 `json:"last_ok_ms"`
}

// BackendStats is one worker's routing view.
type BackendStats struct {
	Name      string `json:"name"`
	Healthy   bool   `json:"healthy"`
	InFlight  int64  `json:"in_flight"` // router-side live gauge
	Load      int    `json:"load"`      // last polled worker in_flight+queued
	Requests  uint64 `json:"requests"`
	Failures  uint64 `json:"failures"`
	Ejections uint64 `json:"ejections"`
	// Leased marks registered (vs seed) members; LeaseMS is time until the
	// current lease expires (negative once lapsed).
	Leased  bool  `json:"leased,omitempty"`
	LeaseMS int64 `json:"lease_ms,omitempty"`
}

// Stats snapshots the router counters and per-backend state.
func (rt *Router) Stats() Stats {
	st := Stats{
		Requests:      rt.nRequests.Load(),
		Proxied:       rt.nProxied.Load(),
		Retries:       rt.nRetries.Load(),
		Shed:          rt.nShed.Load(),
		Rejected:      rt.nRejected.Load(),
		Errors:        rt.nErrors.Load(),
		InFlight:      int(rt.inflight.Load()),
		Draining:      rt.Draining(),
		Epoch:         rt.mem.Epoch(),
		Joins:         rt.nJoins.Load(),
		Leaves:        rt.nLeaves.Load(),
		LeaseExpiries: rt.nExpiries.Load(),
		Forgotten:     rt.nForgotten.Load(),
		RingDigest:    fmt.Sprintf("%016x", rt.mem.digest()),
		Converged:     rt.initialSync.Load(),
		SyncRounds:    rt.nSyncRounds.Load(),
		SyncsIn:       rt.nSyncsIn.Load(),
	}
	for _, p := range rt.peers {
		lastOK := int64(-1)
		if ns := p.lastOK.Load(); ns > 0 {
			lastOK = time.Since(time.Unix(0, ns)).Milliseconds()
		}
		st.Peers = append(st.Peers, PeerStats{
			URL: p.url, Syncs: p.syncs.Load(), Failures: p.failures.Load(), LastOKMS: lastOK,
		})
	}
	members, _ := rt.mem.snapshot()
	st.Members = len(members)
	now := time.Now()
	for _, b := range members {
		b.mu.Lock()
		healthy, load := b.healthy, b.load
		b.mu.Unlock()
		leased, leaseMS := b.leaseInfo(now)
		st.Backends = append(st.Backends, BackendStats{
			Name:      b.name,
			Healthy:   healthy,
			InFlight:  b.inflight.Load(),
			Load:      load,
			Requests:  b.requests.Load(),
			Failures:  b.failures.Load(),
			Ejections: b.ejections.Load(),
			Leased:    leased,
			LeaseMS:   leaseMS,
		})
	}
	return st
}
