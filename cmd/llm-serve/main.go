// Command llm-serve exposes a trained language model as an HTTP generation
// service backed by the request-batching engine of package llm: concurrent
// requests are coalesced into batched forward passes over the KV-cache
// inference path, each with its own sampling parameters. The served model
// is a transformer: the -model checkpoint, or without one a small model
// trained on the synthetic PCFG corpus at startup so the service can be
// tried end to end. The §5 ladder substrates run through llm-generate
// -backend, not through a server.
//
// Usage:
//
//	llm-serve [-model model.json]
//	          [-addr :8372] [-max-batch 8] [-queue 64]
//	          [-prefill-chunk 0] [-synthetic 500]
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
// its own timeout_ms budget that overruns it fails with 504 between passes
// and releases its batch slot. -stall-timeout arms the token-progress
// watchdog, a per-request timer that fails requests that stop producing
// tokens (a wedged loop or blocked predictor) even when total runtime is
// still within budget.
//
// Each loop iteration is one forward pass: every in-flight stream's next
// token plus at most one chunk of at most -prefill-chunk prompt rows, so a
// long prompt rides the running streams' passes a bounded chunk at a time,
// and no pass is wider than -max-batch + -prefill-chunk rows (0 or below
// selects serve.Config's default for the field: 8 streams, 64 prompt
// rows). /v1/stats reports prompt_tokens
// and decode_tokens separately, the in_flight and queued live gauges an
// llm-router polls for load-aware placement, plus the prefill_chunk_hist
// histogram of chunk sizes and the batch_hist histogram of decode rows per
// pass (how well concurrent traffic amortizes each pass's one-time weight
// streaming).
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
//	                   A failure before the first token gets the status
//	                   /v1/generate would (400, 499, 503, 504 or 500);
//	                   one after it ends the stream with an in-band
//	                     data: {"error":"..."}
//	                   frame.
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
// process exits (httpapi.Exit, as in llm-router; non-zero if -drain-timeout
// cut requests off). A -join or -advertise URL without a scheme and a host
// fails at start.
//
// The request's HTTP context propagates to the batching engine, so a client
// disconnect drops the request from the decoding batch immediately.
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
		synthetic    = flag.Int("synthetic", 500, "synthetic corpus size for the demo model")
		addr         = flag.String("addr", ":8372", "listen address")
		maxBatch     = flag.Int("max-batch", 8, "max sequences decoded per batched step")
		queue        = flag.Int("queue", 64, "pending-request buffer depth")
		prefill      = flag.Int("prefill-chunk", 0, "max prompt rows per forward pass, beside the decode rows (0 = serve's default, 64)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on SIGTERM or /v1/drain")
		reqTimeout   = flag.Duration("request-timeout", 0, "default per-request deadline; requests without their own timeout_ms fail with 504 past it (0 disables)")
		stallTimeout = flag.Duration("stall-timeout", 0, "token-progress watchdog: streams making no progress for this long are failed (0 disables)")
		join         = flag.String("join", "", "comma-separated router base URLs to register with (empty = static membership)")
		advertise    = flag.String("advertise", "", "base URL advertised to the router (default: derived from -addr)")
		lease        = flag.Duration("lease", 15*time.Second, "registration lease TTL requested from the router")
		heartbeat    = flag.Duration("heartbeat", 0, "lease-renewal period (0 = lease/3)")
	)
	flag.Parse()

	model, err := loadModel(*modelPath, *synthetic)
	if err != nil {
		log.Fatal(err)
	}

	srv := serve.New(model, serve.Config{
		MaxBatch: *maxBatch, QueueDepth: *queue, PrefillChunk: *prefill,
		RequestTimeout: *reqTimeout, StallTimeout: *stallTimeout,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// A joined worker deregisters before the shutdown waits for its
	// in-flight requests, so routers stop sending it fresh work meanwhile.
	var leave func(context.Context)
	if *join != "" {
		self := *advertise
		if self == "" {
			self = advertisedURL(*addr)
		}
		joiner, err := httpapi.StartJoiner(httpapi.JoinConfig{
			Routers: strings.Split(*join, ","), Self: self,
			Lease: *lease, Interval: *heartbeat, Logf: log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		leave = func(ctx context.Context) {
			if err := joiner.Leave(ctx); err != nil {
				log.Printf("deregister failed (lease will expire instead): %v", err)
			} else {
				log.Printf("deregistered from %s", *join)
			}
		}
	}
	exit := httpapi.NewExit(*drainTimeout, leave)
	h := httpapi.New(srv, exit.Shutdown)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("serving on %s", *addr)
	if err := exit.Serve(ctx, ln, h); err != nil {
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

// loadModel opens a transformer checkpoint, or trains the demo model on the
// synthetic corpus when no checkpoint is given.
func loadModel(path string, synthetic int) (*llm.LLM, error) {
	if path == "" {
		log.Printf("no -model: training a demo model on %d synthetic sentences", synthetic)
		cfg := llm.DefaultConfig()
		cfg.Seed = 42
		model, _, err := llm.Train(llm.SyntheticCorpus(synthetic, 42), cfg)
		return model, err
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
