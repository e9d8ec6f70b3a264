// Command llm-router fronts a fleet of llm-serve workers as one serving
// endpoint — the replicated tier's load balancer. A single worker process
// is pinned near its memory-bandwidth floor (EXPERIMENTS.md E19-E22);
// scaling past one core means N worker processes, and the router makes
// them look like one server with the exact same API surface.
//
// Usage:
//
//	llm-router [-backends http://127.0.0.1:8372,http://127.0.0.1:8373]
//	           [-addr :8371] [-default-lease 15s]
//	           [-peers http://127.0.0.1:8381] [-sync-interval 500ms]
//	           [-max-inflight 256] [-backend-queue 32]
//	           [-attempts 3] [-retry-backoff 10ms]
//	           [-health-interval 250ms] [-fail-threshold 3]
//	           [-relay-timeout 30s] [-drain-timeout 30s]
//
// Membership is dynamic: workers join the fleet via POST /v1/register
// (llm-serve -join does this automatically), renew by heartbeating the
// same endpoint, and leave via POST /v1/deregister when they drain. A
// lease that expires without renewal ejects its worker like a failed
// probe; one lapsed ten TTLs (and failing its probes) is removed from the
// ring entirely. -backends seeds permanent members (their lease never
// expires) and may be empty — a router can start with no workers and grow
// its fleet entirely through registration. Every membership change bumps
// the epoch on /v1/stats.
//
// High availability: -peers lists the base URLs of the other routers in a
// replicated router tier. Peers converge on the same leased-member set —
// and therefore the same placement — via the workers' own heartbeats to
// every router (llm-serve -join with all router URLs) and push-pull
// anti-entropy every -sync-interval (POST /v1/sync), which carries a join
// or leave heard by one router to the others within one interval.
// GET /healthz answers 200 only once the router is ready: its initial
// peer-sync round has run and at least one backend is healthy — so a
// restarted router does not take traffic before it has a fleet to place
// onto. /v1/stats exports the convergence surface: ring_digest (equal
// digests = identical membership and ring), converged, and per-peer sync
// counters.
//
// Placement: requests carrying a session key (the body's "session" field,
// or the X-Session-Key header) are routed by consistent hashing, so one
// session's requests keep hitting the same worker and reuse its warm
// KV/prefix state. Unkeyed requests go to the least-loaded healthy worker,
// scored from the router's own in-flight counts plus each worker's polled
// in_flight+queued gauges.
//
// Health: every -health-interval the router probes each worker's /healthz
// and refreshes its load gauges from /v1/stats; failed proxy attempts count
// against the same per-worker failure streak (passive detection). A worker
// at -fail-threshold consecutive failures, or whose lease lapses, is
// ejected and routed around until this router hears from it first-hand
// again: a successful probe or relay, or its heartbeat. A peer router's
// gossip renews a lease but never readmits a worker. Failed idempotent requests — generate
// always, streams before the first byte — retry against the session's next
// ring replica with exponential backoff, up to -attempts placements.
// Non-streaming relays are bounded by -relay-timeout per attempt, so a
// worker that accepts a connection and never answers fails over instead of
// hanging the client; requests carrying a deadline budget (timeout_ms or
// the X-Request-Timeout-Ms header) forward the remaining budget to each
// attempt and get 504 from the router itself once it is exhausted.
//
// Admission control: more than -max-inflight concurrent requests, or a
// preferred worker already -backend-queue deep, sheds with 429 +
// Retry-After instead of queueing without bound. Every count and duration
// flag selects its default at 0 or below.
//
// Endpoints mirror a worker: POST /v1/generate, POST /v1/stream (SSE
// passthrough), GET /v1/stats (router + per-backend counters), GET
// /healthz, POST /v1/drain. SIGTERM or /v1/drain drains gracefully:
// admission stops (503, /healthz not-ready) while in-flight streams finish,
// bounded by -drain-timeout (httpapi.Exit, as in llm-serve; non-zero if
// -drain-timeout cut requests off). A -backends or -peers URL without a
// scheme and a host fails at start; duplicates are dropped.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/httpapi"
	"repro/internal/router"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("llm-router: ")
	var (
		backends     = flag.String("backends", "", "comma-separated seed llm-serve base URLs (may be empty: workers join via /v1/register)")
		addr         = flag.String("addr", ":8371", "listen address")
		defaultLease = flag.Duration("default-lease", 0, "lease TTL granted to registrations that do not request one (0 = default 15s)")
		peersFlag    = flag.String("peers", "", "comma-separated base URLs of peer routers (replicated membership)")
		syncEvery    = flag.Duration("sync-interval", 0, "peer anti-entropy period (0 = default 500ms)")
		maxInflight  = flag.Int("max-inflight", 0, "global in-flight admission cap (0 = default 256)")
		backendQueue = flag.Int("backend-queue", 0, "per-backend queue-depth shed limit (0 = default 32)")
		attempts     = flag.Int("attempts", 0, "max placement attempts per request (0 = default 3)")
		retryBackoff = flag.Duration("retry-backoff", 0, "sleep before the first retry, doubling per attempt (0 = default 10ms)")
		healthEvery  = flag.Duration("health-interval", 0, "active health-probe and gauge-poll period (0 = default 250ms)")
		failThresh   = flag.Int("fail-threshold", 0, "consecutive failures that eject a worker (0 = default 3)")
		relayTimeout = flag.Duration("relay-timeout", 0, "per-attempt cap on non-streaming relays (0 = default 30s)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on SIGTERM or /v1/drain")
	)
	flag.Parse()

	exit := httpapi.NewExit(*drainTimeout, nil)
	rt, err := router.New(router.Config{
		Backends:       strings.Split(*backends, ","),
		DefaultLease:   *defaultLease,
		Peers:          strings.Split(*peersFlag, ","),
		SyncInterval:   *syncEvery,
		MaxInFlight:    *maxInflight,
		BackendQueue:   *backendQueue,
		MaxAttempts:    *attempts,
		RetryBackoff:   *retryBackoff,
		HealthInterval: *healthEvery,
		FailThreshold:  *failThresh,
		RelayTimeout:   *relayTimeout,
	}, exit.Shutdown)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	st := rt.Stats()
	log.Printf("routing on %s (%d seed backends, %d peer routers; workers may join via /v1/register)", *addr, len(st.Backends), len(st.Peers))
	if err := exit.Serve(ctx, ln, rt); err != nil {
		log.Fatal(err)
	}
	log.Print("shut down")
}
