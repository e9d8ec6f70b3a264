// Package httpapi is the worker-side HTTP surface of the serving stack: the
// JSON/SSE front end one llm-serve process exposes over a serve.Server. It
// exists as a package (rather than code private to cmd/llm-serve) because
// three parties must agree on the wire contract: the worker binary, the
// llm-router tier that proxies and health-checks workers, and the
// self-hosted fleets (internal/fleettest, bench/) that run worker stacks
// in-process.
//
// Endpoints:
//
//	POST /v1/generate  one-shot generation, JSON in/out
//	POST /v1/stream    same body; SSE, one data frame per sampled token
//	GET  /v1/stats     serve.Stats counters + live in_flight/queued gauges
//	GET  /healthz      readiness: 200 while serving, 503 once draining
//	POST /v1/drain     enter drain mode (also wired to SIGTERM by the binary)
//
// Drain mode is the rolling-restart/scale-down story: Drain flips the
// handler to reject new generation work with 503 + Retry-After and turns
// /healthz not-ready — so a router stops picking this worker — while
// requests already in flight (including SSE streams) run to completion.
// The binary then uses http.Server.Shutdown, which waits for exactly those
// in-flight handlers, to exit cleanly.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
	"repro/internal/sample"
	"repro/internal/serve"
)

// TimeoutHeader carries a request's remaining deadline budget in milliseconds
// across the routing tier: the router reads the client's budget, decrements
// it per relay attempt, and forwards the remainder here, where it wins over
// the body's timeout_ms field.
const TimeoutHeader = "X-Request-Timeout-Ms"

// Handler is the HTTP front end over one serve.Server.
type Handler struct {
	srv      *serve.Server
	mux      *http.ServeMux
	draining atomic.Bool
	once     sync.Once
	onDrain  func()
}

// New builds the worker handler. onDrain, if non-nil, runs once (on its own
// goroutine) when drain mode is entered — the binary hooks graceful
// http.Server shutdown there; tests and in-process fleets pass nil.
func New(srv *serve.Server, onDrain func()) *Handler {
	h := &Handler{srv: srv, onDrain: onDrain}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/generate", h.handleGenerate)
	mux.HandleFunc("POST /v1/stream", h.handleStream)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, h.srv.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if h.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, r *http.Request) {
		h.Drain()
		WriteJSON(w, http.StatusAccepted, map[string]bool{"draining": true})
	})
	h.mux = mux
	return h
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	gw := &guardWriter{ResponseWriter: w}
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if v == http.ErrAbortHandler {
			// The deliberate sever-the-connection panic (also how the drop
			// fault kind manifests): let net/http abort the response.
			panic(v)
		}
		// Anything else is a handler bug (or an injected panic): the worker
		// answers it instead of dying. Before the response is committed a
		// proper 500 goes out; mid-SSE the best remaining option is an
		// in-band error frame so the client sees a terminal event rather
		// than a silently truncated stream.
		msg := map[string]string{"error": fmt.Sprintf("internal error: %v", v)}
		if !gw.wrote {
			WriteJSON(gw, http.StatusInternalServerError, msg)
			return
		}
		WriteEvent(gw, msg)
		gw.Flush()
	}()
	h.mux.ServeHTTP(gw, r)
}

// guardWriter tracks whether the response has been committed, so the panic
// recovery layer knows whether a real 500 status is still possible. It
// always implements http.Flusher (flushing is a no-op when the underlying
// writer cannot), keeping the SSE handler's capability check working.
type guardWriter struct {
	http.ResponseWriter
	wrote bool
}

func (g *guardWriter) WriteHeader(code int) {
	g.wrote = true
	g.ResponseWriter.WriteHeader(code)
}

func (g *guardWriter) Write(b []byte) (int, error) {
	g.wrote = true
	return g.ResponseWriter.Write(b)
}

func (g *guardWriter) Flush() {
	if f, ok := g.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Drain flips the worker to not-ready: new generation requests get 503 with
// Retry-After, /healthz reports 503, and in-flight work keeps running. The
// onDrain hook fires once, asynchronously — synchronously it would deadlock
// with an http.Server.Shutdown that waits for the very /v1/drain request
// that triggered it.
func (h *Handler) Drain() {
	h.draining.Store(true)
	h.once.Do(func() {
		if h.onDrain != nil {
			go h.onDrain()
		}
	})
}

// Draining reports whether drain mode has been entered.
func (h *Handler) Draining() bool { return h.draining.Load() }

// rejectDraining answers a generation request arriving after Drain.
func (h *Handler) rejectDraining(w http.ResponseWriter) bool {
	if !h.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "draining"})
	return true
}

// GenRequest is the POST /v1/generate and /v1/stream body. Session is not
// interpreted by the worker: it is the routing tier's affinity key, carried
// in the body so keyed requests need no custom headers (the router also
// accepts an X-Session-Key header, which wins over the body field).
type GenRequest struct {
	Prompt      string  `json:"prompt"`
	Tokens      int     `json:"tokens"`
	Strategy    string  `json:"strategy"` // greedy (default), temp, topk, topp
	Temperature float64 `json:"temperature"`
	TopK        int     `json:"top_k"`
	TopP        float64 `json:"top_p"`
	Seed        uint64  `json:"seed"`
	StopAtEOS   bool    `json:"stop_at_eos"`
	Session     string  `json:"session,omitempty"`
	// TimeoutMS is the request's end-to-end deadline budget in milliseconds
	// (0 = the worker's default). The TimeoutHeader, when present, wins —
	// that is how the router forwards a decremented budget per attempt.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// GenResponse is the POST /v1/generate reply.
type GenResponse struct {
	Completion string  `json:"completion"`
	Tokens     []int   `json:"tokens"`
	DurationMS float64 `json:"duration_ms"`
}

// StreamDone is the terminal SSE event of a /v1/stream response.
type StreamDone struct {
	Done       bool    `json:"done"`
	Completion string  `json:"completion"`
	DurationMS float64 `json:"duration_ms"`
}

// parseRequest decodes and validates a request body into a serve.Request.
// Out-of-range knobs are rejected here with an error (a 400 at the call
// sites) — before this check a negative temperature rode through
// ParseStrategy's unset-value defaulting or reached the panic guards in
// internal/sample from the middle of the batch loop.
func parseRequest(r *http.Request) (serve.Request, error) {
	var req GenRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return serve.Request{}, fmt.Errorf("bad json: %w", err)
	}
	switch {
	case req.Tokens < 0:
		return serve.Request{}, fmt.Errorf("tokens %d must not be negative", req.Tokens)
	case req.Temperature < 0:
		return serve.Request{}, fmt.Errorf("temperature %v must not be negative", req.Temperature)
	case req.TopK < 0:
		return serve.Request{}, fmt.Errorf("top_k %d must not be negative", req.TopK)
	case req.TopP < 0 || req.TopP > 1:
		return serve.Request{}, fmt.Errorf("top_p %v outside [0,1]", req.TopP)
	case req.TimeoutMS < 0:
		return serve.Request{}, fmt.Errorf("timeout_ms %d must not be negative", req.TimeoutMS)
	}
	if req.Tokens == 0 {
		req.Tokens = 12
	}
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if hd := r.Header.Get(TimeoutHeader); hd != "" {
		ms, err := strconv.ParseInt(hd, 10, 64)
		if err != nil || ms < 0 {
			return serve.Request{}, fmt.Errorf("bad %s %q", TimeoutHeader, hd)
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	strat, err := sample.ParseStrategy(req.Strategy, req.Temperature, req.TopP, req.TopK)
	if err != nil {
		return serve.Request{}, err
	}
	if err := sample.ValidateStrategy(strat); err != nil {
		return serve.Request{}, err
	}
	return serve.Request{
		Prompt: req.Prompt, MaxTokens: req.Tokens, Strategy: strat,
		Seed: req.Seed, StopAtEOS: req.StopAtEOS, Timeout: timeout,
	}, nil
}

// injectHTTP evaluates an HTTP-layer failpoint site: a drop fault becomes
// the sever-the-connection panic (caught and re-raised by ServeHTTP), any
// other fault is answered with a 500. Reports whether the handler should
// stop.
func injectHTTP(w http.ResponseWriter, site string) bool {
	err := failpoint.Inject(site)
	if err == nil {
		return false
	}
	if errors.Is(err, failpoint.ErrDrop) {
		panic(http.ErrAbortHandler)
	}
	WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	return true
}

func (h *Handler) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if h.rejectDraining(w) {
		return
	}
	if injectHTTP(w, failpoint.HTTPGenerate) {
		return
	}
	req, err := parseRequest(r)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	start := time.Now()
	res, err := h.srv.Do(r.Context(), req)
	if err != nil {
		WriteJSON(w, errStatus(err), map[string]string{"error": err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, GenResponse{
		Completion: res.Text,
		Tokens:     res.Tokens,
		DurationMS: sinceMS(start),
	})
}

// handleStream serves one generation as server-sent events, flushing each
// token the moment its batched decoding step completes.
func (h *Handler) handleStream(w http.ResponseWriter, r *http.Request) {
	if h.rejectDraining(w) {
		return
	}
	if injectHTTP(w, failpoint.HTTPStreamPreSSE) {
		return
	}
	req, err := parseRequest(r)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	// Reject invalid requests with a proper status before committing to
	// streaming headers, matching /v1/generate's error contract.
	if err := h.srv.Validate(req); err != nil {
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	start := time.Now()
	res, err := h.srv.Stream(r.Context(), req, func(t sample.Token) error {
		if err := failpoint.Inject(failpoint.HTTPStreamMid); err != nil {
			return err
		}
		if err := WriteEvent(w, t); err != nil {
			return err
		}
		flusher.Flush()
		return nil
	})
	if err != nil {
		if errors.Is(err, failpoint.ErrDrop) {
			// A mid-stream drop fault: sever the connection the way a
			// crashing worker would, after the stream request has been
			// cleanly cancelled out of the batch.
			panic(http.ErrAbortHandler)
		}
		// Headers are sent; report the failure in-band and end the stream.
		WriteEvent(w, map[string]string{"error": err.Error()})
		flusher.Flush()
		return
	}
	WriteEvent(w, StreamDone{Done: true, Completion: res.Text, DurationMS: sinceMS(start)})
	flusher.Flush()
}

// WriteEvent emits one SSE data frame.
func WriteEvent(w http.ResponseWriter, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "data: %s\n\n", data)
	return err
}

// errStatus maps engine errors to HTTP statuses.
func errStatus(err error) int {
	var pe *serve.PanicError
	switch {
	case errors.Is(err, serve.ErrDeadline), errors.Is(err, serve.ErrStalled):
		// The server gave up on the request, not the client on the server.
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return 499 // client closed request
	case errors.Is(err, serve.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.As(err, &pe):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

func sinceMS(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

// WriteJSON writes v as the JSON body of a response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
