// Package router is the replicated serving tier's front end: a stdlib-HTTP
// reverse proxy that spreads /v1/generate and /v1/stream traffic across a
// fleet of llm-serve workers. One worker process is pinned near its
// memory-bandwidth floor (E19-E22); serving production traffic means N of
// them, and this package is the layer that makes N processes look like one:
//
//   - Membership: the fleet is dynamic (membership.go). Workers join via
//     POST /v1/register (base URL + lease TTL), renew by heartbeating the
//     same endpoint, and leave explicitly via POST /v1/deregister; the
//     -backends list survives as seed members, whose lease never expires.
//     A lease that expires without renewal ejects its worker exactly like
//     a failed probe; one lapsed ten TTLs is forgotten — removed from the
//     ring. Every membership change rebuilds the consistent-hash ring
//     under a new epoch (exposed on /v1/stats), and because placement is
//     a pure function of the member set, each rebuild remaps only the
//     sessions the joined/left worker claims or frees.
//   - Replication: peer routers converge on one member set through the
//     workers' heartbeats to every router and periodic push-pull
//     anti-entropy (peer.go), so any router places a session where its
//     peers would.
//   - Placement: requests carrying a session key are routed by consistent
//     hashing (ring.go), so a session's requests keep landing on the same
//     worker — the placement KV/prefix reuse needs. Unkeyed requests go to
//     the least-loaded healthy worker, scored by the router's own in-flight
//     count plus the worker's polled in_flight+queued gauges.
//   - Health: one state machine per backend (backend.go), one rule each
//     way. Failure evidence ejects — FailThreshold consecutive failed
//     probes or relays, or a lapsed lease — and ejected workers are routed
//     around. Only first-hand liveness readmits: a successful probe, a
//     successful relay, or the worker's own heartbeat. A peer router's
//     record moves a lease clock, never health.
//   - Retries: idempotent work (generate always; streams before the first
//     byte reaches the client) fails over to the next ring replica with
//     exponential backoff. A stream that breaks after bytes were written
//     ends with an in-band SSE error frame instead.
//   - Admission control: a global in-flight cap and a per-backend
//     queue-depth limit shed excess load early with 429 + Retry-After,
//     keeping worker queues bounded instead of letting every client time
//     out slowly.
//   - Drain: the router embeds the worker's httpapi.Drainer. Drain stops
//     admitting (503, /healthz not-ready) and runs the onDrain hook, where
//     the binary's httpapi.Exit waits for in-flight requests — including
//     SSE streams — to finish, so SIGTERM rolls the tier without dropping
//     a token.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
	"repro/internal/httpapi"
)

// Config assembles the routing tier. Every count and duration below
// selects its default when it is zero or less.
type Config struct {
	// Backends is the seed worker fleet, as base URLs
	// (e.g. http://127.0.0.1:8372). Seed members are permanent: their
	// lease never expires and they are never forgotten. May be empty — a
	// router can start with no members and grow its fleet entirely through
	// /v1/register.
	Backends []string
	// Peers lists the other llm-router instances fronting the same fleet,
	// as base URLs. Peers replicate the lease-based membership state to
	// one another by periodic push-pull anti-entropy over /v1/sync, so
	// every router converges on the same member set and — placement being
	// a pure function of membership — the same session placement. May be
	// empty: a single router needs no peers.
	Peers []string
	// SyncInterval is the anti-entropy period: how often the full record
	// set is push-pulled with each peer (default 500ms). A join or leave
	// heard by one router reaches the others within one interval. It
	// should be well under the worker lease TTL, so a router partitioned
	// from a worker keeps its lease fresh through a peer's gossiped
	// renewals.
	SyncInterval time.Duration
	// DefaultLease is the TTL granted to /v1/register calls that do not
	// request one, and the lease scale behind the Retry-After hint on
	// membership-flux rejections (default 15s).
	DefaultLease time.Duration
	// MaxInFlight is the global admission cap: requests beyond it are shed
	// with 429 (default 256).
	MaxInFlight int
	// BackendQueue is the per-backend load limit: when the chosen worker's
	// score (router in-flight + polled worker gauge) reaches it, the
	// request is shed with 429 rather than queued ever deeper (default 32).
	BackendQueue int
	// MaxAttempts bounds placement attempts per request, the first try
	// included (default 3, always capped at the fleet size).
	MaxAttempts int
	// RetryBackoff is the nominal sleep before the first retry, doubling
	// per attempt; each sleep is jittered to [1/2, 1] of nominal so a
	// burst of requests orphaned by one worker ejection does not hammer
	// the surviving replicas in lockstep (default 10ms).
	RetryBackoff time.Duration
	// HealthInterval is the active probe + gauge poll period (default
	// 250ms).
	HealthInterval time.Duration
	// FailThreshold is how many consecutive failures (passive or probe)
	// eject a backend (default 3).
	FailThreshold int
	// RelayTimeout bounds one non-streaming relay attempt — connect through
	// full response — so a black-holed worker fails the attempt over to the
	// next replica instead of hanging the relay past the retry logic
	// (default 30s). Streaming relays are not bounded here (a stream's
	// length is the client's token budget, not the router's); they rely on
	// the propagated deadline budget and the worker's own watchdog.
	RelayTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.DefaultLease <= 0 {
		c.DefaultLease = 15 * time.Second
	}
	if c.BackendQueue <= 0 {
		c.BackendQueue = 32
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 250 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.RelayTimeout <= 0 {
		c.RelayTimeout = 30 * time.Second
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = 500 * time.Millisecond
	}
	return c
}

// Router is the load-aware front end over a fleet of llm-serve workers.
// It serves the same /v1/generate, /v1/stream, /v1/stats, and /healthz
// surface a single worker does, so clients cannot tell one worker from a
// routed fleet.
type Router struct {
	*httpapi.Drainer
	cfg   Config
	mem   *membership
	mux   *http.ServeMux
	peers []*peer
	// client has no global timeout: generation length is unbounded, and
	// cancellation rides the request context.
	client *http.Client

	// initialSync latches once the first anti-entropy round has completed
	// (immediately when no peers are configured); until then /healthz
	// reports not-ready so a cold-started router is not handed traffic
	// before it has tried to pull membership from its peers.
	initialSync atomic.Bool

	inflight atomic.Int64

	quit chan struct{}
	once sync.Once
	hwg  sync.WaitGroup

	// Counters, exported on /v1/stats.
	nRequests   atomic.Uint64 // everything that reached the handler
	nProxied    atomic.Uint64 // completed with an upstream response
	nRetries    atomic.Uint64 // extra placement attempts
	nShed       atomic.Uint64 // 429 admission/backpressure rejections
	nRejected   atomic.Uint64 // 503 drain/no-backend rejections
	nErrors     atomic.Uint64 // exhausted retries, broken streams, answered panics
	nJoins      atomic.Uint64 // new members admitted (register or peer sync)
	nLeaves     atomic.Uint64 // members removed (deregister or peer sync)
	nExpiries   atomic.Uint64 // leases that lapsed without renewal
	nForgotten  atomic.Uint64 // lapsed members removed from the ring
	nSyncRounds atomic.Uint64 // completed anti-entropy rounds
	nSyncsIn    atomic.Uint64 // /v1/sync exchanges served for peers
}

// New builds the router and starts its health loop. onDrain, if non-nil,
// runs once (on its own goroutine) when drain mode is entered: the binary
// passes its httpapi.Exit's Shutdown. Backends and Peers go through
// httpapi.BaseURLs. Callers must Close the router to stop the health loop.
func New(cfg Config, onDrain func()) (*Router, error) {
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg: cfg, quit: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
	}
	rt.Drainer = httpapi.NewDrainer(onDrain, rt.retryAfterMembership(), rt.ready)
	names, err := httpapi.BaseURLs(cfg.Backends)
	if err != nil {
		return nil, err
	}
	seeds := make([]*backend, len(names))
	for i, name := range names {
		seeds[i] = newBackend(name)
	}
	rt.mem = newMembership(seeds)
	peers, err := httpapi.BaseURLs(cfg.Peers)
	if err != nil {
		return nil, err
	}
	for _, u := range peers {
		rt.peers = append(rt.peers, &peer{url: u})
	}
	// With no peers there is nothing to sync: the cold-start readiness
	// gate opens immediately.
	rt.initialSync.Store(len(peers) == 0)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/generate", func(w http.ResponseWriter, r *http.Request) {
		rt.handle(w, r, "/v1/generate", false)
	})
	mux.HandleFunc("POST /v1/stream", func(w http.ResponseWriter, r *http.Request) {
		rt.handle(w, r, "/v1/stream", true)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, rt.Stats())
	})
	rt.Routes(mux)
	mux.HandleFunc("POST /v1/register", rt.handleRegister)
	mux.HandleFunc("POST /v1/deregister", rt.handleDeregister)
	mux.HandleFunc("POST /v1/sync", rt.handleSync)
	rt.mux = mux

	rt.hwg.Add(1)
	go rt.healthLoop()
	if len(rt.peers) > 0 {
		rt.hwg.Add(1)
		go rt.syncLoop()
	}
	return rt, nil
}

// ServeHTTP serves the router's mux behind httpapi's panic guard: a handler
// bug answers its request (a 500, or an in-band SSE error frame once
// headers are out) and counts in Stats.Errors instead of killing the
// goroutine silently, and the router keeps serving.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	httpapi.Guard(w, r, rt.mux, func() { rt.nErrors.Add(1) })
}

// Close stops the health loop. It does not wait for in-flight requests —
// the http.Server's Shutdown does that.
func (rt *Router) Close() {
	rt.once.Do(func() { close(rt.quit) })
	rt.hwg.Wait()
}

// retryAfterLoad is the Retry-After hint on load-shedding 429s: queue
// pressure clears at traffic speed, but the router's view of worker load
// refreshes at probe cadence, so the honest earliest time a retry can see
// a different answer is the next gauge poll — two health intervals,
// rounded up to Retry-After's whole-second resolution.
func (rt *Router) retryAfterLoad() string {
	return ceilSecs(2 * rt.cfg.HealthInterval)
}

// retryAfterMembership is the Retry-After hint on 503s issued during
// membership flux (draining, or no healthy member). The condition clears
// when a probe readmits an ejected worker or a heartbeat renews/creates a
// lease, so the hint is derived from both cadences rather than a
// hardcoded constant: two probe intervals, or a quarter of the default
// lease when that is longer (workers heartbeat at a fraction of their
// TTL — Joiner uses TTL/3 — so lease/4 is one expected heartbeat away).
func (rt *Router) retryAfterMembership() string {
	d := 2 * rt.cfg.HealthInterval
	if hb := rt.cfg.DefaultLease / 4; hb > d {
		d = hb
	}
	return ceilSecs(d)
}

// ceilSecs renders d as whole seconds for a Retry-After header, rounding
// up and flooring at 1 (a Retry-After of 0 would mean "immediately").
func ceilSecs(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// reject writes a 503 rejection with the membership-derived backoff hint.
func (rt *Router) reject(w http.ResponseWriter, why string) {
	rt.nRejected.Add(1)
	w.Header().Set("Retry-After", rt.retryAfterMembership())
	httpapi.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": why})
}

// admit gates one generation request. It returns false after writing the
// rejection when the router is draining or the global cap is hit; on true,
// the caller must call the returned release exactly once.
func (rt *Router) admit(w http.ResponseWriter) (release func(), ok bool) {
	if rt.Refuse(w) {
		rt.nRejected.Add(1)
		return nil, false
	}
	if rt.inflight.Add(1) > int64(rt.cfg.MaxInFlight) {
		rt.inflight.Add(-1)
		rt.shed(w, "router at capacity")
		return nil, false
	}
	return func() { rt.inflight.Add(-1) }, true
}

// shed writes the 429 load-shedding reply.
func (rt *Router) shed(w http.ResponseWriter, why string) {
	rt.nShed.Add(1)
	w.Header().Set("Retry-After", rt.retryAfterLoad())
	httpapi.WriteJSON(w, http.StatusTooManyRequests, map[string]string{"error": why})
}

// routing reads, in one parse of the body, the two things the router takes
// from a generation request: its affinity key and its end-to-end deadline
// budget. The X-Session-Key header wins over the body's "session" field,
// and the budget follows the worker's own rule (httpapi.HeaderTimeout): the
// header wins, else the body's timeout_ms. A body that is not valid JSON
// yields no key and no budget — the request still forwards, and the worker
// owns the 400. A budget of 0 means none; negative body values are left for
// the worker's validation.
func routing(r *http.Request, body []byte) (session string, budget time.Duration, err error) {
	var probe struct {
		Session   string `json:"session"`
		TimeoutMS int64  `json:"timeout_ms"`
	}
	if json.Unmarshal(body, &probe) != nil {
		probe.Session, probe.TimeoutMS = "", 0
	}
	if k := r.Header.Get("X-Session-Key"); k != "" {
		probe.Session = k
	}
	budget, err = httpapi.HeaderTimeout(r, time.Duration(max(probe.TimeoutMS, 0))*time.Millisecond)
	return probe.Session, budget, err
}

// candidates returns the placement order for one request: the session's
// ring successors (keyed) or every backend sorted by load score ascending
// (unkeyed), with ejected backends moved to the back in either case — they
// are only tried once every healthy replica has failed.
func (rt *Router) candidates(session string) []*backend {
	members, rg := rt.mem.snapshot()
	var order []*backend
	if session != "" {
		idxs := rg.successors(session)
		order = make([]*backend, len(idxs))
		for i, idx := range idxs {
			order[i] = members[idx]
		}
	} else {
		order = append([]*backend(nil), members...)
		sort.SliceStable(order, func(a, b int) bool { return order[a].score() < order[b].score() })
	}
	healthy := make([]*backend, 0, len(order))
	var ejected []*backend
	for _, b := range order {
		if b.isHealthy() {
			healthy = append(healthy, b)
		} else {
			ejected = append(ejected, b)
		}
	}
	return append(healthy, ejected...)
}

// handle proxies one generation request with placement, retries, and
// backpressure. stream selects SSE passthrough semantics.
func (rt *Router) handle(w http.ResponseWriter, r *http.Request, path string, stream bool) {
	rt.nRequests.Add(1)
	release, ok := rt.admit(w)
	if !ok {
		return
	}
	defer release()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, httpapi.MaxBody))
	if err != nil {
		httpapi.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "body read: " + err.Error()})
		return
	}
	session, budget, err := routing(r, body)
	if err != nil {
		httpapi.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	cands := rt.candidates(session)
	if len(cands) == 0 || !cands[0].isHealthy() {
		rt.reject(w, "no healthy backend")
		return
	}
	// Per-backend backpressure: the preferred worker (session owner, or the
	// least-loaded one — in which case every worker is at least this busy)
	// is already at its queue limit. Shedding here, rather than piling on,
	// keeps worker queues bounded and, for keyed traffic, keeps the
	// session's KV affinity instead of scattering it under overload.
	if cands[0].score() >= rt.cfg.BackendQueue {
		rt.shed(w, "backend queue full")
		return
	}

	attempts := rt.cfg.MaxAttempts
	if attempts > len(cands) {
		attempts = len(cands)
	}
	backoff := rt.cfg.RetryBackoff
	for i := 0; i < attempts; i++ {
		if r.Context().Err() != nil {
			return // client is gone; nothing to answer, nowhere to retry for
		}
		if i > 0 {
			rt.nRetries.Add(1)
			time.Sleep(httpapi.JitteredBackoff(backoff))
			backoff *= 2
		}
		// The deadline budget shrinks across attempts: each relay forwards
		// only what remains, and when retries (or a slow worker) have eaten
		// it all, the router answers 504 itself rather than dispatching work
		// no one is waiting for.
		remaining := time.Duration(-1)
		if !deadline.IsZero() {
			remaining = time.Until(deadline)
			if remaining <= 0 {
				rt.nErrors.Add(1)
				httpapi.WriteJSON(w, http.StatusGatewayTimeout, map[string]string{"error": "request deadline budget exhausted"})
				return
			}
		}
		if rt.tryBackend(w, r, cands[i], path, body, stream, remaining) {
			return
		}
	}
	rt.nErrors.Add(1)
	w.Header().Set("Retry-After", rt.retryAfterMembership())
	httpapi.WriteJSON(w, http.StatusBadGateway, map[string]string{"error": "all backends failed"})
}

// retryableStatus marks upstream replies that indicate the worker (not the
// request) is the problem: transport-level gateway errors and 503, which a
// draining or overloaded worker returns for work another replica can take.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// tryBackend sends the request to b and relays the response. It returns
// false when the attempt failed in a retryable way with nothing written to
// the client; once any byte has been relayed the attempt is always
// "handled" (a broken stream ends with an in-band error frame, not a
// retry, because the new worker would re-sample tokens the client already
// saw).
func (rt *Router) tryBackend(w http.ResponseWriter, r *http.Request, b *backend, path string, body []byte, stream bool, remaining time.Duration) bool {
	b.requests.Add(1)
	b.inflight.Add(1)
	defer b.inflight.Add(-1)

	if err := failpoint.Inject(failpoint.RouterRelay); err != nil {
		// The injected fault lands exactly where a transport failure would:
		// passive detection, retry to the next replica.
		b.markFailure(rt.cfg.FailThreshold)
		return false
	}

	// Per-attempt timeout for non-streaming relays: a black-holed worker
	// fails this attempt over to the next replica instead of hanging the
	// relay. The request's remaining deadline budget tightens it further.
	ctx := r.Context()
	if !stream {
		attempt := rt.cfg.RelayTimeout
		if remaining >= 0 {
			attempt = min(attempt, remaining)
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, attempt)
		defer cancel()
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.endpoint(path), bytes.NewReader(body))
	if err != nil {
		b.markFailure(rt.cfg.FailThreshold)
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	if remaining >= 0 {
		// Forward the remaining budget so the worker enforces the deadline
		// end-to-end; floor at 1ms — a 0 header would mean "no timeout".
		ms := remaining.Milliseconds()
		if ms <= 0 {
			ms = 1
		}
		req.Header.Set(httpapi.TimeoutHeader, strconv.FormatInt(ms, 10))
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		// Connect/transport failure: passive detection, retryable (unless
		// the client itself is gone, which the attempt loop checks).
		b.markFailure(rt.cfg.FailThreshold)
		return false
	}
	defer resp.Body.Close()
	if retryableStatus(resp.StatusCode) {
		b.markFailure(rt.cfg.FailThreshold)
		io.Copy(io.Discard, resp.Body)
		return false
	}
	b.markSuccess()
	// Counted before the first byte is relayed — count, then reply — so a
	// client holding its answer never reads Stats without it.
	rt.nProxied.Add(1)

	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	if !stream {
		io.Copy(w, resp.Body)
		return true
	}
	rt.relayStream(r.Context(), w, resp.Body, b)
	return true
}

// relayStream copies SSE bytes to the client, flushing per read so tokens
// leave the moment the worker emits them. A mid-stream upstream failure
// (worker died) is reported with an in-band error frame — headers are long
// gone — and counts against the backend's health. A client disconnect also
// surfaces as an upstream read error (the proxied request shares the
// client's context), so ctx distinguishes the two: the client leaving is
// not the worker's fault.
func (rt *Router) relayStream(ctx context.Context, w http.ResponseWriter, upstream io.Reader, b *backend) {
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 4096)
	for {
		n, err := upstream.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return // client hung up; the worker sees the cancel via ctx
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			if ctx.Err() != nil {
				return // client gone mid-stream; nothing to report, no one to blame
			}
			b.markFailure(rt.cfg.FailThreshold)
			rt.nErrors.Add(1)
			fmt.Fprintf(w, "data: %s\n\n", `{"error":"upstream failed mid-stream"}`)
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
	}
}

// decodeBody parses a bounded JSON request body into v, writing the 400
// itself on failure so handlers can just return on error.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, httpapi.MaxBody))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		httpapi.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
	}
	return err
}
