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
// The two generation endpoints run one handler and one error contract: a
// failure before a stream's first token is answered with the status
// /v1/generate gives it — 400 a bad request or prompt, 499 a client gone,
// 503 a closed server, 504 a deadline or stall, 500 a panic — so a router
// fails the stream over as it does a generate. Only once the first token
// has committed the 200 and the SSE headers does a failure become an
// in-band {"error": ...} frame, or a severed connection for a drop fault.
//
// Drain mode is the rolling-restart/scale-down story: Drain flips the
// handler to reject new generation work with 503 + Retry-After and turns
// /healthz not-ready — so a router stops picking this worker — while
// requests already in flight (including SSE streams) run to completion.
// The drain switch (Drainer) and the graceful exit (Exit, whose Shutdown
// waits for exactly those in-flight handlers) live here once and serve
// the router too, as do the fleet's base-URL rule (BaseURL) and its
// jittered retry backoff (JitteredBackoff).
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
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

// MaxBody bounds the request bodies the worker and the router read, in
// bytes: generation requests are a few hundred bytes, so 1 MiB is generous.
// A longer body is answered 400 once its first MaxBody bytes are read.
const MaxBody = 1 << 20

// Handler is the HTTP front end over one serve.Server.
type Handler struct {
	*Drainer
	srv *serve.Server
	mux *http.ServeMux
}

// New builds the worker handler. onDrain, if non-nil, runs once (on its own
// goroutine) when drain mode is entered: the binary passes its Exit's
// Shutdown there; tests and in-process fleets pass nil.
func New(srv *serve.Server, onDrain func()) *Handler {
	h := &Handler{Drainer: NewDrainer(onDrain, "1", nil), srv: srv}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/generate", func(w http.ResponseWriter, r *http.Request) {
		h.handle(w, r, false)
	})
	mux.HandleFunc("POST /v1/stream", func(w http.ResponseWriter, r *http.Request) {
		h.handle(w, r, true)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, h.srv.Stats())
	})
	h.Routes(mux)
	h.mux = mux
	return h
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	Guard(w, r, h.mux, nil)
}

// Guard serves r through next behind the panic guard the worker and the
// router share. http.ErrAbortHandler (the deliberate sever, also the drop
// fault kind) is re-raised for net/http. Any other panic is answered: a 500
// before the response is committed, an in-band SSE error frame after it,
// so a stream ends in a terminal event rather than silent truncation.
// onPanic, when non-nil, runs once per answered panic.
func Guard(w http.ResponseWriter, r *http.Request, next http.Handler, onPanic func()) {
	gw := &guardWriter{ResponseWriter: w}
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if v == http.ErrAbortHandler {
			panic(v)
		}
		if onPanic != nil {
			onPanic()
		}
		msg := map[string]string{"error": fmt.Sprintf("internal error: %v", v)}
		if !gw.wrote {
			WriteJSON(gw, http.StatusInternalServerError, msg)
			return
		}
		writeEvent(gw, msg)
		gw.Flush()
	}()
	next.ServeHTTP(gw, r)
}

// guardWriter tracks whether the response has been committed, so the panic
// recovery layer knows whether a real 500 status is still possible. It
// always implements http.Flusher (flushing is a no-op when the underlying
// writer cannot), so the stream handler needs no capability check, and
// passes io.ReaderFrom through, so a relay's io.Copy keeps net/http's
// pooled copy buffer instead of allocating one per call.
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

func (g *guardWriter) ReadFrom(src io.Reader) (int64, error) {
	g.wrote = true
	if rf, ok := g.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(src)
	}
	return io.Copy(g.ResponseWriter, src)
}

func (g *guardWriter) Flush() {
	if f, ok := g.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
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

// parseRequest decodes and validates a request body of at most MaxBody
// bytes into a serve.Request. Out-of-range knobs are rejected here with an
// error (a 400 at the call sites) — before this check a negative
// temperature rode through ParseStrategy's unset-value defaulting or
// reached the panic guards in internal/sample from the middle of the batch
// loop.
func parseRequest(w http.ResponseWriter, r *http.Request) (serve.Request, error) {
	var req GenRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBody)).Decode(&req); err != nil {
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
		req.Tokens = sample.DefaultMaxTokens
	}
	timeout, err := HeaderTimeout(r, time.Duration(req.TimeoutMS)*time.Millisecond)
	if err != nil {
		return serve.Request{}, err
	}
	strat, err := sample.ParseStrategy(req.Strategy, req.Temperature, req.TopP, req.TopK)
	if err != nil {
		return serve.Request{}, err
	}
	return serve.Request{
		Prompt: req.Prompt, MaxTokens: req.Tokens, Strategy: strat,
		Seed: req.Seed, StopAtEOS: req.StopAtEOS, Timeout: timeout,
	}, nil
}

// HeaderTimeout is the request's deadline budget: the TimeoutHeader's when
// present, else body (the body's timeout_ms). A malformed or negative
// header is an error — a deadline must not be silently dropped.
func HeaderTimeout(r *http.Request, body time.Duration) (time.Duration, error) {
	hd := r.Header.Get(TimeoutHeader)
	if hd == "" {
		return body, nil
	}
	ms, err := strconv.ParseInt(hd, 10, 64)
	if err != nil || ms < 0 {
		return 0, fmt.Errorf("bad %s %q", TimeoutHeader, hd)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// Inject evaluates an HTTP-layer failpoint site of the worker or the
// router: a drop fault becomes the sever-the-connection panic (re-raised by
// Guard), any other fault is answered with a 500. Reports whether the
// handler should stop.
func Inject(w http.ResponseWriter, site string) bool {
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

// handle serves one generation, the same steps on both endpoints: Refuse,
// the endpoint's entry failpoint, parseRequest, and one srv.Stream call. A
// generate call passes no callback and gets one JSON reply. A stream's
// callback writes one SSE frame per token, flushed the moment its batched
// decoding step completes, and commits the 200 and the SSE headers at the
// first token. Until then a failure is answered as /v1/generate answers
// it, with errStatus's status, so a router can still fail the request over;
// after it, a failure is an in-band error frame, or a severed connection
// for a drop fault.
func (h *Handler) handle(w http.ResponseWriter, r *http.Request, stream bool) {
	if h.Refuse(w) {
		return
	}
	site := failpoint.HTTPGenerate
	if stream {
		site = failpoint.HTTPStreamPreSSE
	}
	if Inject(w, site) {
		return
	}
	req, err := parseRequest(w, r)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	// Guard's writer always implements http.Flusher.
	flusher, _ := w.(http.Flusher)
	committed := false // a stream's 200 and SSE headers are out
	var onToken func(sample.Token) error
	if stream {
		onToken = func(t sample.Token) error {
			if !committed {
				committed = true
				w.Header().Set("Content-Type", "text/event-stream")
				w.Header().Set("Cache-Control", "no-cache")
				w.WriteHeader(http.StatusOK)
			}
			if err := failpoint.Inject(failpoint.HTTPStreamMid); err != nil {
				return err
			}
			if err := writeEvent(w, t); err != nil {
				return err
			}
			flusher.Flush()
			return nil
		}
	}
	start := time.Now()
	res, err := h.srv.Stream(r.Context(), req, onToken)
	switch {
	case err != nil && !committed:
		WriteJSON(w, errStatus(err), map[string]string{"error": err.Error()})
	case err != nil:
		if errors.Is(err, failpoint.ErrDrop) {
			// A mid-stream drop fault: sever the connection the way a
			// crashing worker would, after the stream request has been
			// cleanly cancelled out of the batch.
			panic(http.ErrAbortHandler)
		}
		writeEvent(w, map[string]string{"error": err.Error()})
		flusher.Flush()
	case stream:
		// Every completed request sampled a token, so the headers are out.
		writeEvent(w, StreamDone{Done: true, Completion: res.Text, DurationMS: sinceMS(start)})
		flusher.Flush()
	default:
		WriteJSON(w, http.StatusOK, GenResponse{
			Completion: res.Text,
			Tokens:     res.Tokens,
			DurationMS: sinceMS(start),
		})
	}
}

// writeEvent emits one SSE data frame.
func writeEvent(w http.ResponseWriter, v any) error {
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
