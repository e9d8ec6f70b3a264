// Command llm-serve exposes a trained language model as an HTTP generation
// service backed by the request-batching engine of package llm: concurrent
// requests are coalesced into batched forward passes over the KV-cache
// inference path, each with its own sampling parameters. Without -model it
// trains a small model on the synthetic PCFG corpus at startup so the
// service can be tried end to end with no checkpoint; -backend swaps in a
// §5 ladder substrate (n-gram, FFN-LM, LSTM) served by the same loop and
// API.
//
// Usage:
//
//	llm-serve [-model model.json] [-backend transformer|ngram|ffn|rnn]
//	          [-addr :8372] [-max-batch 8] [-coalesce 2ms] [-queue 64]
//	          [-prefill-chunk 32] [-synthetic 500] [-speculate 4]
//	          [-drain-timeout 30s] [-request-timeout 0] [-stall-timeout 0]
//	          [-join http://127.0.0.1:8371] [-advertise http://host:8372]
//	          [-lease 15s] [-heartbeat 5s]
//
// -join enrolls the worker in an llm-router fleet dynamically: on startup
// it registers its -advertise URL (derived from -addr when unset) with the
// router's /v1/register, requesting a -lease TTL, then heartbeats every
// -heartbeat (default lease/3) to keep the lease alive — retrying with
// jittered exponential backoff while the router is unreachable, so worker
// and router can start in any order. With a replicated router tier, -join
// takes every router's base URL comma-separated; the worker registers with
// and heartbeats all of them independently, tolerating any subset being
// down. Draining (SIGTERM or /v1/drain) deregisters explicitly from every
// router — each with a short bounded retry — before the listener shuts
// down, so the routers drop the worker immediately instead of waiting out
// the lease.
//
// -request-timeout is the server-side default deadline: a request without
// its own timeout_ms budget that overruns it fails with 504 between decode
// steps and releases its batch slot. -stall-timeout arms the token-progress
// watchdog, which fails streams that stop producing tokens (a wedged loop
// or blocked predictor) even when total runtime is still within budget.
//
// Prompts are ingested through the chunked prefill fast path: whole chunks
// of -prefill-chunk tokens per matrix pass, interleaved with the in-flight
// batch's decode steps so a long prompt never stalls running streams by
// more than one chunk (negative = whole prompts in one pass). /v1/stats
// reports prompt_tokens and decode_tokens separately, the in_flight and
// queued live gauges an llm-router polls for load-aware placement, plus the
// prefill_chunk_hist histogram of chunk sizes and the batch_hist histogram
// of per-step decode batch sizes (how well concurrent traffic amortizes
// each step's one-pass weight streaming).
//
// -speculate k enables speculative decoding (transformer backend only): an
// n-gram draft model distilled from the served model at startup proposes
// blocks of k tokens and each block is verified in one pass, scheduled like
// prefill chunks so draft work never starves in-flight decodes. Greedy
// requests keep bitwise-identical output; stochastic requests keep their
// exact token distribution. /v1/stats gains spec_rounds, spec_drafted,
// spec_accepted, and the spec_accept_hist acceptance-length histogram.
//
// The HTTP surface lives in internal/httpapi (shared with the test
// harnesses and self-hosted benchmarks):
//
//	POST /v1/generate  {"prompt": "the king", "tokens": 12,
//	                    "strategy": "temp", "temperature": 0.8,
//	                    "top_k": 10, "top_p": 0.9, "seed": 1,
//	                    "stop_at_eos": false, "session": "user-42"}
//	  -> {"completion": "...", "tokens": [ ... ], "duration_ms": 1.93}
//	POST /v1/stream    same body; server-sent events, one per token as its
//	                   batched decoding step completes:
//	                     data: {"index":0,"id":17,"text":"crown"}
//	                   then a final event:
//	                     data: {"done":true,"completion":"...","duration_ms":1.93}
//	GET  /v1/stats     server throughput counters and load gauges
//	GET  /healthz      readiness probe: 200 serving, 503 draining
//	POST /v1/drain     enter drain mode (equivalent to SIGTERM)
//
// "session" is an opaque affinity key for llm-router's consistent-hash
// placement; the worker itself ignores it.
//
// Shutdown is graceful: SIGTERM (or POST /v1/drain) stops admission — new
// generation requests get 503 + Retry-After and /healthz flips to 503 so a
// router ejects the worker — while requests already in flight, including
// SSE streams, run to completion (bounded by -drain-timeout) before the
// process exits.
//
// The request's HTTP context propagates to the batching engine, so a client
// disconnect drops the request from the decoding batch immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/serve"
	"repro/llm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("llm-serve: ")
	var (
		modelPath    = flag.String("model", "", "checkpoint written by llm-train; empty = train a synthetic demo model")
		backend      = flag.String("backend", "transformer", "model backend: transformer, ngram, ffn or rnn")
		synthetic    = flag.Int("synthetic", 500, "synthetic corpus size for the demo model")
		addr         = flag.String("addr", ":8372", "listen address")
		maxBatch     = flag.Int("max-batch", 8, "max sequences decoded per batched step")
		coalesce     = flag.Duration("coalesce", 2*time.Millisecond, "linger for more requests before decoding a fresh batch")
		queue        = flag.Int("queue", 64, "pending-request buffer depth")
		prefill      = flag.Int("prefill-chunk", 32, "max prompt tokens ingested per prefill pass between decode steps (negative = whole prompt)")
		speculate    = flag.Int("speculate", 0, "speculative draft depth; distills an n-gram drafter at startup (0 disables)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on SIGTERM or /v1/drain")
		reqTimeout   = flag.Duration("request-timeout", 0, "default per-request deadline; requests without their own timeout_ms fail with 504 past it (0 disables)")
		stallTimeout = flag.Duration("stall-timeout", 0, "token-progress watchdog: streams making no progress for this long are failed (0 disables)")
		join         = flag.String("join", "", "comma-separated router base URLs to register with (empty = static membership)")
		advertise    = flag.String("advertise", "", "base URL advertised to the router (default: derived from -addr)")
		lease        = flag.Duration("lease", 15*time.Second, "registration lease TTL requested from the router")
		heartbeat    = flag.Duration("heartbeat", 0, "lease-renewal period (0 = lease/3)")
	)
	flag.Parse()

	model, err := loadBackend(*backend, *modelPath, *synthetic)
	if err != nil {
		log.Fatal(err)
	}

	var drafter llm.Drafter
	if *speculate > 0 {
		log.Printf("distilling n-gram draft model (depth %d)", *speculate)
		drafter = llm.DistillDrafter(model, 3, 4096, 42)
	}
	srv := serve.NewBackend(model, serve.Config{
		MaxBatch: *maxBatch, CoalesceWait: *coalesce, QueueDepth: *queue,
		PrefillChunk: *prefill, Speculate: *speculate, Drafter: drafter,
		RequestTimeout: *reqTimeout, StallTimeout: *stallTimeout,
	})
	defer srv.Close()

	hs := &http.Server{
		Addr:              *addr,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	// The joiner keeps this worker registered with a router; it is started
	// after the listener below and torn down first on drain.
	var joiner *httpapi.Joiner

	// Drain (via /v1/drain or a signal) stops admission in the handler;
	// Shutdown then waits for in-flight requests — SSE streams included —
	// before ListenAndServe returns. A joined worker deregisters first so
	// the router stops sending fresh work while in-flight requests finish.
	h := httpapi.New(srv, func() {
		if joiner != nil {
			leaveCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			if err := joiner.Leave(leaveCtx); err != nil {
				log.Printf("deregister failed (lease will expire instead): %v", err)
			} else {
				log.Printf("deregistered from %s", *join)
			}
			cancel()
		}
		log.Printf("draining: waiting up to %s for in-flight requests", *drainTimeout)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			log.Printf("drain timed out: %v", err)
		}
	})
	hs.Handler = h

	if *join != "" {
		self := *advertise
		if self == "" {
			self = advertisedURL(*addr)
		}
		var routers []string
		for _, r := range strings.Split(*join, ",") {
			if r = strings.TrimSpace(r); r != "" {
				routers = append(routers, r)
			}
		}
		var err error
		joiner, err = httpapi.StartJoiner(httpapi.JoinConfig{
			Routers: routers, Self: self,
			Lease: *lease, Interval: *heartbeat, Logf: log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		h.Drain()
	}()
	log.Printf("serving on %s", *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Print("shut down")
}

// advertisedURL derives the self-registration URL from the listen address:
// a bare-port ":8372" is reachable (at least) on loopback, anything with a
// host keeps it.
func advertisedURL(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}

// loadBackend opens a transformer checkpoint, or trains the selected demo
// backend on the synthetic corpus when no checkpoint is given.
func loadBackend(backend, path string, synthetic int) (llm.LanguageModel, error) {
	if path != "" {
		if backend != "transformer" {
			return nil, fmt.Errorf("-model requires -backend transformer (got %q)", backend)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		model, err := core.Load(f)
		if err != nil {
			return nil, err
		}
		log.Printf("model ready: vocab=%d params=%d window=%d",
			model.Tok.VocabSize(), model.Model.NumParameters(), model.Model.Cfg.Window)
		return model, nil
	}
	log.Printf("no -model: training a demo %s backend on %d synthetic sentences", backend, synthetic)
	return llm.TrainBackend(backend, llm.SyntheticCorpus(synthetic, 42), 42)
}
