// Package serve is the batched generation front end: a request queue that
// coalesces concurrent Generate calls into batched forward passes over the
// transformer's KV-cache inference path (continuous batching). Each request
// keeps its own sampling strategy, seed, and token budget, and is dropped
// from the batch the moment its context is cancelled. One background loop
// owns the model's BatchedPredictor; callers only ever touch channels, so
// the server is safe for arbitrary concurrent use.
//
// Results stream: Stream delivers per-token events as each continuous-
// batching step completes, and the final text is bitwise identical to the
// unbatched lm.Gen / core.LLM.Generate result for the same request.
//
// The server is backend-agnostic at the API level: NewBackend accepts any
// lm.LanguageModel. The transformer pipeline (core.LLM) gets the batched
// loop; other substrates (n-gram, FFN-LM, RNN) are served by an equivalent
// single-sequence loop with the same queue, cancellation, streaming, and
// stats behavior.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/failpoint"
	"repro/internal/lm"
	"repro/internal/mathx"
	"repro/internal/sample"
	"repro/internal/tokenizer"
)

// ErrClosed is returned for requests submitted to (or stranded in) a server
// that has been Closed.
var ErrClosed = errors.New("serve: server closed")

// ErrDeadline is returned for requests that exhaust their per-request
// deadline (Request.Timeout, or the server-wide Config.RequestTimeout
// default). The loop enforces it between decode steps, so a slow or stuck
// request cannot occupy a batch slot indefinitely; the failure is charged
// to Stats.Failed (and Deadlined), never to Cancelled — the client did not
// leave, the server gave up.
var ErrDeadline = errors.New("serve: request deadline exceeded")

// ErrStalled is returned for requests the stall watchdog killed: no token
// (or prefill) progress for Config.StallTimeout. Unlike ErrDeadline — which
// bounds total request time — the watchdog bounds time between consecutive
// tokens, the signature of a wedged loop or a blocked predictor rather than
// a merely long generation.
var ErrStalled = errors.New("serve: stream stalled: no token progress within the stall timeout")

// PanicError wraps a panic recovered inside the serving loop: the request
// that triggered it fails with this error while the batch and server keep
// running. Site names the loop operation that panicked (sample, prefill,
// verify, step, single).
type PanicError struct {
	Site  string
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: panic in %s: %v", e.Site, e.Value)
}

// Unwrap exposes the panic value when it is itself an error, so callers can
// errors.Is/As through the recovery boundary (e.g. to a failpoint-injected
// panic).
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Config tunes the batching loop. The zero value selects the defaults.
type Config struct {
	// MaxBatch is the largest number of sequences decoded per step
	// (default 8).
	MaxBatch int
	// QueueDepth is the pending-request buffer; submissions beyond it
	// block in Generate (default 64).
	QueueDepth int
	// CoalesceWait is how long a freshly formed batch lingers for more
	// requests to arrive before decoding starts (default 2ms). 0 keeps
	// the default; negative disables lingering.
	CoalesceWait time.Duration
	// PrefillChunk caps how many prompt tokens one chunked-prefill pass
	// ingests (default 32). The loop runs at most one prefill chunk
	// between consecutive decode steps, so this bounds the extra latency
	// a mid-decode request can see from another request's prompt: one
	// chunk's compute, regardless of prompt length. Larger chunks ingest
	// prompts faster (better time-to-first-token for the new request);
	// smaller chunks keep in-flight streams smoother. 0 keeps the
	// default; negative removes the cap (whole prompts in one pass).
	PrefillChunk int
	// Speculate enables speculative decoding in the batched loop: each
	// iteration runs one verification round of this draft depth for one
	// decode-phase request (round-robin, mirroring the prefill-chunk
	// policy, so draft work never starves the other in-flight decodes)
	// while the rest take the normal batched step. Requires Drafter;
	// 0 disables. Greedy requests keep bitwise-identical output; stochastic
	// requests keep their exact token distribution via rejection sampling.
	Speculate int
	// Drafter is the shared proposal model for Speculate (e.g.
	// lm.DistillDrafter over the served checkpoint). The loop is its only
	// caller, so it needs no internal locking.
	Drafter sample.Drafter
	// RequestTimeout is the server-side default deadline applied to
	// requests that do not carry their own Request.Timeout; 0 disables.
	// Enforced between decode steps, so a request can overrun by at most
	// one step (plus one prefill chunk / verify round).
	RequestTimeout time.Duration
	// StallTimeout arms the token-progress watchdog: a request that makes
	// no progress (no sampled token, no prefill chunk) for this long is
	// failed with ErrStalled, even while the loop itself is wedged — the
	// watchdog runs on its own goroutine and kills via context cause.
	// 0 disables.
	StallTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CoalesceWait == 0 {
		c.CoalesceWait = 2 * time.Millisecond
	}
	if c.PrefillChunk == 0 {
		c.PrefillChunk = 32
	}
	return c
}

// Request is one generation job — the struct form of the unified generation
// options, with the prompt attached. Build it directly or with NewRequest.
type Request struct {
	Prompt    string
	MaxTokens int             // tokens to generate; must be >= 1 (and below the window for windowed models)
	Strategy  sample.Strategy // nil = greedy
	Seed      uint64          // per-request sampling seed
	StopAtEOS bool            // stop at the sentence separator and trim it
	// Timeout is this request's end-to-end deadline, measured from
	// submission; 0 falls back to Config.RequestTimeout (and negative is
	// rejected at validation). On expiry the request fails with
	// ErrDeadline between decode steps and its batch slot is reclaimed.
	Timeout time.Duration
}

// NewRequest builds a Request from the unified functional options.
func NewRequest(prompt string, opts ...sample.Option) Request {
	o := sample.BuildOptions(opts...)
	return Request{
		Prompt: prompt, MaxTokens: o.MaxTokens,
		Strategy: o.Strategy, Seed: o.Seed, StopAtEOS: o.StopAtEOS,
		Timeout: o.Timeout,
	}
}

// Options converts the request back to the options struct shared with the
// single-sequence decoding driver.
func (r Request) Options() sample.Options {
	return sample.Options{
		MaxTokens: r.MaxTokens, Strategy: r.Strategy,
		Seed: r.Seed, StopAtEOS: r.StopAtEOS, Timeout: r.Timeout,
	}
}

// Result is a finished generation (same shape as the direct lm.Gen path).
type Result = lm.Result

// Stats is a snapshot of server counters. StepRows/Steps is the mean decode
// batch size actually achieved; MaxBatch is the peak. PromptTokens and
// DecodeTokens split throughput by phase — prompt ingestion through the
// chunked prefill fast path versus sampled tokens from decode steps — so
// prefill and decode rates are separately observable. Once the server is
// idle, Requests == Completed + Cancelled + Failed.
//
// PromptTokens counts tokens run through Prefill; the prompt positions the
// predictor's prefix cache restored instead are counted in PrefixHitTokens.
// Once the server is idle and no request was cut off mid-prompt (cancelled,
// failed or evicted before its first token), PromptTokens + PrefixHitTokens
// equals the total prompt tokens admitted.
type Stats struct {
	Requests  uint64 `json:"requests"`  // accepted by Do/Generate (past validation)
	Completed uint64 `json:"completed"` // finished with a result
	Cancelled uint64 `json:"cancelled"` // dropped by context cancellation
	Failed    uint64 `json:"failed"`    // prompt errors and shutdown rejections
	Steps     uint64 `json:"steps"`     // decode steps executed
	StepRows  uint64 `json:"step_rows"` // total sequence-rows fed across decode steps
	MaxBatch  int    `json:"max_batch"` // largest per-step decode batch observed

	PromptTokens uint64 `json:"prompt_tokens"` // prompt tokens ingested by prefill
	DecodeTokens uint64 `json:"decode_tokens"` // tokens sampled (incl. each prompt's first, sampled from prefill logits)

	// Prefix-cache counters (batched mode; see transformer.BatchedPredictor.
	// Attach): every admitted prompt is one lookup, a hit is a lookup that
	// restored at least one sixteen-token block, and PrefixHitTokens is the
	// prompt positions restored rather than prefilled. PrefixBlocks is a
	// gauge — the blocks resident in the loop's predictor, back to zero when
	// a whole-batch failure rebuilds it — and PrefixEvictions counts blocks
	// evicted to stay within the cache's byte budget.
	PrefixLookups   uint64 `json:"prefix_lookups"`
	PrefixHits      uint64 `json:"prefix_hits"`
	PrefixHitTokens uint64 `json:"prefix_hit_tokens"`
	PrefixBlocks    int    `json:"prefix_blocks"`
	PrefixEvictions uint64 `json:"prefix_evictions"`

	// InFlight and Queued are live gauges, not cumulative counters: the
	// number of accepted requests not yet finished (decoding, queued, or
	// replying) and the subset still waiting in the submission queue at
	// snapshot time. They are the load signal a routing tier polls off
	// /v1/stats to pick the least-loaded replica, so unlike the counters
	// above they go back down as the server drains.
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`

	// PrefillChunkHist is a histogram of per-pass prefill chunk sizes:
	// bucket i counts chunks of size in (2^(i-1), 2^i] (bucket 0 is size
	// 1, the last bucket collects everything larger than 2^7).
	PrefillChunkHist [9]uint64 `json:"prefill_chunk_hist"`

	// BatchHist is the same power-of-two histogram over per-step decode
	// batch sizes. With the cross-sequence GEMM step, weight traffic per
	// step is near-constant, so the histogram shows directly how well
	// traffic amortizes that fixed cost: mass in the higher buckets means
	// each weight stream served many sequences.
	BatchHist [9]uint64 `json:"batch_hist"`

	// Speculative-decoding counters (Config.Speculate). SpecAcceptHist is
	// the acceptance-length histogram: bucket i counts verification rounds
	// that accepted exactly i draft tokens (the last bucket collects deeper
	// rounds), so mean accepted length and its spread are read directly off
	// /v1/stats. SpecRounds counts every verification round; only rounds
	// that actually drafted contribute to SpecDrafted/SpecAccepted and the
	// histogram.
	SpecRounds     uint64     `json:"spec_rounds"`
	SpecDrafted    uint64     `json:"spec_drafted"`
	SpecAccepted   uint64     `json:"spec_accepted"`
	SpecAcceptHist [17]uint64 `json:"spec_accept_hist"`

	// Failure-mode counters, each a subset of Failed: requests killed by a
	// recovered panic (theirs or a whole-batch step failure), by their
	// deadline, or by the stall watchdog. The panic counter in particular
	// is the worker-survival signal the chaos harness asserts on: panics
	// observed, process still serving.
	Panics    uint64 `json:"panics"`
	Deadlined uint64 `json:"deadline_exceeded"`
	Stalled   uint64 `json:"stalled"`
}

// histBucket maps a positive size to its power-of-two histogram bucket:
// bucket i covers (2^(i-1), 2^i], bucket 0 is size 1, and the final bucket
// collects everything beyond the range.
func histBucket(n, buckets int) int {
	b := bits.Len(uint(n - 1))
	if n <= 1 {
		b = 0
	}
	if b > buckets-1 {
		b = buckets - 1
	}
	return b
}

// Server owns one model and one serving loop (batched for core.LLM,
// single-sequence for other backends).
type Server struct {
	backend lm.LanguageModel
	model   *core.LLM // non-nil in batched mode
	window  int       // 0 = unbounded
	cfg     Config

	// newBatch builds the loop's predictor; a seam the scheduling tests
	// replace to observe the exact prefill/decode call sequence.
	newBatch func() batchPredictor

	// spec is the speculative-decoding driver (batched mode with
	// Config.Speculate set); only the loop goroutine touches it.
	spec *sample.Speculative

	// evicted is the current predictor's eviction count as of the last
	// countPrefill; only the loop goroutine touches it.
	evicted uint64

	queue chan *pending
	quit  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup

	mu    sync.Mutex
	stats Stats

	// watch is the stall watchdog's registry of live requests (nil when
	// Config.StallTimeout is 0): every accepted pending is registered at
	// enqueue and removed when its outcome is delivered, and the watchdog
	// goroutine kills any entry whose progress stamp goes stale.
	wmu   sync.Mutex
	watch map[*pending]struct{}
}

type pending struct {
	ctx    context.Context
	req    Request
	done   chan outcome
	events chan sample.Token // nil unless the caller is streaming

	// cancel tears the request down with a cause (ErrStalled from the
	// watchdog); nil when the request was built without prepare (tests
	// driving the queue directly).
	cancel context.CancelCauseFunc
	// progress is the UnixNano stamp of the last observable progress
	// (admission, a prefill chunk, a sampled token) — the watchdog's
	// staleness signal. Only maintained when the watchdog is armed.
	progress atomic.Int64
}

type outcome struct {
	res Result
	err error
}

// liveReq is a request admitted into the decoding batch.
type liveReq struct {
	p      *pending
	slot   int   // BatchedPredictor sequence handle
	forced []int // prompt tokens not yet fed (prefill)
	last   int   // most recently sampled token (decode phase)
	ctx    []int // full decoded context incl. last (speculative mode only)
	dec    *sample.Decoder
	pd     *lm.PieceDecoder // non-nil when streaming
}

// New starts a batched server over the transformer pipeline. Callers must
// Close it to stop the background loop.
func New(model *core.LLM, cfg Config) *Server {
	s := newServer(model, model, cfg)
	s.wg.Add(1)
	go s.loop()
	return s
}

// NewBackend starts a server over any LanguageModel. The transformer
// pipeline gets the continuous-batching loop; every other backend is served
// by a single-sequence loop with identical request semantics (queue,
// per-request options, streaming, cancellation, stats).
func NewBackend(m lm.LanguageModel, cfg Config) *Server {
	if model, ok := m.(*core.LLM); ok {
		return New(model, cfg)
	}
	s := newServer(m, nil, cfg)
	s.wg.Add(1)
	go s.loopSingle()
	return s
}

func newServer(backend lm.LanguageModel, model *core.LLM, cfg Config) *Server {
	s := &Server{
		backend: backend,
		model:   model,
		window:  backend.ContextWindow(),
		cfg:     cfg.withDefaults(),
		quit:    make(chan struct{}),
	}
	if model != nil {
		s.newBatch = func() batchPredictor { return model.Model.NewBatchedPredictor() }
	}
	if s.cfg.Speculate > 0 && s.cfg.Drafter != nil {
		s.spec = &sample.Speculative{K: s.cfg.Speculate, Drafter: s.cfg.Drafter}
	}
	s.queue = make(chan *pending, s.cfg.QueueDepth)
	if s.cfg.StallTimeout > 0 {
		s.watch = make(map[*pending]struct{})
		s.wg.Add(1)
		go s.watchdog()
	}
	return s
}

// watchdog is the token-progress stall detector: on its own goroutine — so
// it keeps ticking even when the serving loop is wedged inside a predictor
// call — it sweeps the live-request registry and cancels, with ErrStalled
// as the cause, any request whose progress stamp is older than
// StallTimeout. The loop (or the caller's select) then observes the
// cancellation and charges the request to Failed/Stalled.
func (s *Server) watchdog() {
	defer s.wg.Done()
	period := s.cfg.StallTimeout / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-s.quit:
			return
		case now := <-ticker.C:
			cutoff := now.Add(-s.cfg.StallTimeout).UnixNano()
			s.wmu.Lock()
			for p := range s.watch {
				if p.progress.Load() < cutoff && p.cancel != nil {
					p.cancel(ErrStalled)
				}
			}
			s.wmu.Unlock()
		}
	}
}

// stamp records observable progress on p (watchdog-armed servers only).
func (s *Server) stamp(p *pending) {
	if s.watch != nil {
		p.progress.Store(time.Now().UnixNano())
	}
}

// track registers p with the watchdog; reply unregisters it.
func (s *Server) track(p *pending) {
	if s.watch == nil {
		return
	}
	p.progress.Store(time.Now().UnixNano())
	s.wmu.Lock()
	s.watch[p] = struct{}{}
	s.wmu.Unlock()
}

// reply delivers p's terminal outcome and drops it from the watchdog
// registry — the single exit point that keeps "exactly one terminal
// outcome per accepted request" true, and therefore the single accounting
// point: terminal charges the outcome to its counter (a panic is split out
// here) before the reply is delivered, so a caller holding its answer never
// reads Stats with the request still in flight.
func (s *Server) reply(p *pending, o outcome, terminal func(*Stats)) {
	if s.watch != nil {
		s.wmu.Lock()
		delete(s.watch, p)
		s.wmu.Unlock()
	}
	var pe *PanicError
	isPanic := errors.As(o.err, &pe)
	s.mu.Lock()
	terminal(&s.stats)
	if isPanic {
		s.stats.Panics++
	}
	s.mu.Unlock()
	p.done <- o
}

// The terminal counters a reply charges.
func completed(st *Stats) { st.Completed++ }
func cancelled(st *Stats) { st.Cancelled++ }
func failed(st *Stats)    { st.Failed++ }
func deadlined(st *Stats) { st.Failed++; st.Deadlined++ }
func stalled(st *Stats)   { st.Failed++; st.Stalled++ }

// prepare wraps the caller's context with the request's teardown handles:
// a cancel-with-cause hook for the watchdog and, when the request or server
// sets a timeout, a deadline whose expiry cause is ErrDeadline. The
// returned cancel releases both.
func (s *Server) prepare(ctx context.Context, req Request) (context.Context, context.CancelCauseFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancelCause(ctx)
	d := req.Timeout
	if d <= 0 {
		d = s.cfg.RequestTimeout
	}
	if d <= 0 {
		return ctx, cancel
	}
	dctx, stop := context.WithDeadlineCause(ctx, time.Now().Add(d), ErrDeadline)
	return dctx, func(cause error) { cancel(cause); stop() }
}

// settle replies to a context-terminated request: a server-imposed deadline
// or stall is charged to Failed (the server gave up), a client cancellation
// to Cancelled. It returns the error delivered.
func (s *Server) settle(p *pending) error {
	cause := context.Cause(p.ctx)
	switch {
	case errors.Is(cause, ErrDeadline):
		s.reply(p, outcome{err: ErrDeadline}, deadlined)
		return ErrDeadline
	case errors.Is(cause, ErrStalled):
		s.reply(p, outcome{err: ErrStalled}, stalled)
		return ErrStalled
	default:
		err := p.ctx.Err()
		s.reply(p, outcome{err: err}, cancelled)
		return err
	}
}

// Close stops the loop. In-flight and queued requests fail with ErrClosed.
func (s *Server) Close() {
	s.once.Do(func() { close(s.quit) })
	s.wg.Wait()
}

// Stats returns a snapshot of the server counters. The InFlight and Queued
// gauges are derived at snapshot time: every accepted request is counted in
// Requests immediately and reaches exactly one terminal counter (Completed,
// Cancelled, or Failed) when it leaves the server, so the difference is the
// live in-flight population, and len(queue) is the part of it still waiting
// for admission into the batch.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.InFlight = int(st.Requests - st.Completed - st.Cancelled - st.Failed)
	st.Queued = len(s.queue)
	return st
}

// Generate enqueues a free-running generation (no stop token) and blocks
// until it completes, mirroring core.LLM.Generate: for a given model,
// prompt, strategy, and seed the text is identical to the unbatched call.
//
// Deprecated: use Gen with functional options, or Do with a Request.
func (s *Server) Generate(ctx context.Context, prompt string, n int, strat sample.Strategy, seed uint64) (string, error) {
	res, err := s.Do(ctx, Request{Prompt: prompt, MaxTokens: n, Strategy: strat, Seed: seed})
	return res.Text, err
}

// Gen enqueues a generation built from the unified functional options and
// blocks until it completes.
func (s *Server) Gen(ctx context.Context, prompt string, opts ...sample.Option) (Result, error) {
	return s.Do(ctx, NewRequest(prompt, opts...))
}

// maxTokensCap bounds per-request generation budgets for backends with no
// finite context window (n-gram, recurrent), so a single request cannot
// pin the loop or pre-allocate an absurd event buffer.
const maxTokensCap = 4096

// validateBudget is the cheap admission precondition Do and Stream check
// before enqueueing; prompt errors surface at admission, which encodes the
// prompt anyway. Strategy parameters are validated here too, so a malformed
// request (e.g. a non-positive temperature) is rejected with an error at
// the door instead of tripping a panic guard inside the batching loop.
func (s *Server) validateBudget(req Request) error {
	if req.MaxTokens <= 0 {
		return fmt.Errorf("serve: MaxTokens %d must be positive", req.MaxTokens)
	}
	if s.window > 0 && req.MaxTokens >= s.window {
		return fmt.Errorf("serve: MaxTokens %d must be below the model window %d", req.MaxTokens, s.window)
	}
	if s.window == 0 && req.MaxTokens > maxTokensCap {
		return fmt.Errorf("serve: MaxTokens %d exceeds the per-request cap %d", req.MaxTokens, maxTokensCap)
	}
	if req.Timeout < 0 {
		return fmt.Errorf("serve: Timeout %v must not be negative", req.Timeout)
	}
	if err := sample.ValidateStrategy(req.Strategy); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// Validate reports whether req would be accepted, without submitting it —
// front ends use it to reject bad requests (including unencodable prompts)
// before committing to a response, e.g. before writing streaming headers.
func (s *Server) Validate(req Request) error {
	if err := s.validateBudget(req); err != nil {
		return err
	}
	_, err := s.backend.EncodePrompt(req.Prompt, req.MaxTokens)
	return err
}

// enqueue submits p, counting it as accepted and registering it with the
// stall watchdog.
func (s *Server) enqueue(ctx context.Context, p *pending) error {
	s.count(func(st *Stats) { st.Requests++ })
	s.track(p)
	select {
	case s.queue <- p:
		return nil
	case <-ctx.Done():
		return s.settle(p)
	case <-s.quit:
		s.reply(p, outcome{err: ErrClosed}, failed)
		return ErrClosed
	}
}

// Do enqueues req and blocks until it completes, the context is cancelled,
// the request's deadline or the stall watchdog fires, or the server closes.
func (s *Server) Do(ctx context.Context, req Request) (Result, error) {
	if err := s.validateBudget(req); err != nil {
		return Result{}, err
	}
	ctx, cancel := s.prepare(ctx, req)
	defer cancel(nil)
	p := &pending{ctx: ctx, req: req, done: make(chan outcome, 1), cancel: cancel}
	if err := s.enqueue(ctx, p); err != nil {
		return Result{}, err
	}
	select {
	case o := <-p.done:
		return o.res, o.err
	case <-ctx.Done():
		return Result{}, context.Cause(ctx)
	case <-s.quit:
		// The loop may have replied just before shutting down.
		select {
		case o := <-p.done:
			return o.res, o.err
		default:
			return Result{}, ErrClosed
		}
	}
}

// Stream is Do with per-token delivery: onToken is invoked, in order, with
// every sampled token the moment its decoding step completes — in batched
// mode that is one continuous-batching step shared with the other in-flight
// requests. The concatenated event pieces and the final Result.Text are
// bitwise identical to the unbatched path. A non-nil error from onToken
// cancels the request.
func (s *Server) Stream(ctx context.Context, req Request, onToken func(sample.Token) error) (Result, error) {
	if onToken == nil {
		return s.Do(ctx, req)
	}
	if err := s.validateBudget(req); err != nil {
		return Result{}, err
	}
	ctx, cancel := s.prepare(ctx, req)
	defer cancel(nil)
	p := &pending{
		ctx: ctx, req: req, done: make(chan outcome, 1), cancel: cancel,
		// The loop must never block on delivery: capacity covers every
		// token the decoder can produce.
		events: make(chan sample.Token, req.MaxTokens+1),
	}
	if err := s.enqueue(ctx, p); err != nil {
		return Result{}, err
	}
	var cbErr error
	deliver := func(ev sample.Token) {
		if cbErr != nil {
			return
		}
		if err := onToken(ev); err != nil {
			cbErr = err
			cancel(err) // drops the request from the batch
		}
	}
	finish := func(o outcome) (Result, error) {
		for {
			select {
			case ev := <-p.events:
				deliver(ev)
				continue
			default:
			}
			break
		}
		if cbErr != nil {
			return Result{}, cbErr
		}
		return o.res, o.err
	}
	for {
		select {
		case ev := <-p.events:
			deliver(ev)
		case o := <-p.done:
			return finish(o)
		case <-ctx.Done():
			if cbErr != nil {
				return Result{}, cbErr
			}
			return Result{}, context.Cause(ctx)
		case <-s.quit:
			select {
			case o := <-p.done:
				return finish(o)
			default:
				return Result{}, ErrClosed
			}
		}
	}
}

// ---- batching loop (transformer backend) ----

// loop is the continuous-batching scheduler. Each iteration interleaves the
// two phases of the workload:
//
//   - at most ONE chunked prefill pass (round-robin over the requests still
//     ingesting their prompt, at most PrefillChunk tokens), so a prompt of
//     any length delays in-flight decodes by one bounded chunk rather than
//     monopolizing the loop;
//   - in speculative mode, at most ONE verification round (round-robin over
//     the decode-phase requests) — the same bounded-intrusion policy, so
//     draft blocks never starve the other in-flight decodes;
//   - one batched decode step over every other request past its prompt.
//
// A request whose prompt finishes mid-iteration samples its first token
// from the prefill logits immediately (the exact logits the old
// one-forced-token-per-step loop sampled, so outputs are unchanged) and
// joins the decode batch the same iteration. Every decode-phase request
// advances at least one token per iteration — via its speculative round or
// via the batched step — so speculation changes scheduling only by letting
// one request advance several tokens.
func (s *Server) loop() {
	defer s.wg.Done()
	bp := s.newBatch()
	var active []*liveReq
	// Step buffers, reused across iterations: the decode loop allocates
	// nothing per step beyond what a request's own lifecycle requires.
	var ids, toks []int
	var decs []*liveReq
	rr := 0 // round-robin cursor over prefilling requests
	sr := 0 // round-robin cursor over speculating requests
	for {
		// Admission: block when idle, otherwise top up without waiting.
		if len(active) == 0 {
			select {
			case p := <-s.queue:
				s.admit(bp, &active, p)
				s.coalesce(bp, &active)
			case <-s.quit:
				s.shutdown(bp, active)
				return
			}
		} else {
			for len(active) < s.cfg.MaxBatch {
				select {
				case p := <-s.queue:
					s.admit(bp, &active, p)
					continue
				default:
				}
				break
			}
		}
		select {
		case <-s.quit:
			s.shutdown(bp, active)
			return
		default:
		}
		// Cancellation sweep, run between decode steps: client
		// cancellations, per-request deadline expiries (ErrDeadline
		// cause), and watchdog kills (ErrStalled cause) all reclaim the
		// batch slot here — settle charges each to the right counter.
		alive := active[:0]
		for _, lr := range active {
			if lr.p.ctx.Err() != nil {
				bp.Drop(lr.slot)
				s.settle(lr.p)
				continue
			}
			alive = append(alive, lr)
		}
		active = alive
		if len(active) == 0 {
			continue
		}
		// One prefill chunk for the next prompt-ingesting request.
		var pf *liveReq
		for i := 0; i < len(active); i++ {
			lr := active[(rr+i)%len(active)]
			if len(lr.forced) > 0 {
				pf = lr
				rr = (rr + i + 1) % len(active)
				break
			}
		}
		if pf != nil {
			chunk := len(pf.forced)
			if s.cfg.PrefillChunk > 0 && chunk > s.cfg.PrefillChunk {
				chunk = s.cfg.PrefillChunk
			}
			logits, err := s.tryPrefill(bp, pf, chunk)
			switch {
			case err != nil:
				// The pass failed or panicked: only this request is
				// implicated (per-sequence KV state is slot-local), so
				// evict it and keep the batch running.
				s.evict(bp, pf, err)
				active = remove(active, pf)
			default:
				pf.forced = pf.forced[chunk:]
				s.stamp(pf.p)
				// A finished prompt samples its first token from these logits
				// below; the same counter update keeps DecodeTokens covering
				// every sampled token, as in single-sequence mode.
				s.countPrefill(bp, chunk, len(pf.forced) == 0)
				if len(pf.forced) == 0 {
					// Prompt fully ingested: the chunk's logits are the first
					// to sample.
					done, err := s.trySample(pf, logits)
					switch {
					case err != nil:
						s.evict(bp, pf, err)
						active = remove(active, pf)
					case done:
						bp.Drop(pf.slot)
						s.finish(pf)
						active = remove(active, pf)
					}
				}
			}
		}
		// One speculative verification round for the next decode-phase
		// request; it advances several tokens at once and sits out the
		// batched step below.
		var sped *liveReq
		if s.spec != nil {
			for i := 0; i < len(active); i++ {
				lr := active[(sr+i)%len(active)]
				if len(lr.forced) == 0 {
					sped = lr
					sr = (sr + i + 1) % len(active)
					break
				}
			}
		}
		if sped != nil {
			done, err := s.trySpec(bp, sped)
			switch {
			case err != nil:
				s.evict(bp, sped, err)
				active = remove(active, sped)
			case done:
				bp.Drop(sped.slot)
				s.finish(sped)
				active = remove(active, sped)
			}
		}
		// One batched decode step over every other request past its prompt.
		ids, toks, decs = ids[:0], toks[:0], decs[:0]
		for _, lr := range active {
			if len(lr.forced) == 0 && lr != sped {
				ids = append(ids, lr.slot)
				toks = append(toks, lr.last)
				decs = append(decs, lr)
			}
		}
		if len(ids) == 0 {
			continue
		}
		logits, err := s.tryStep(bp, ids, toks)
		if err != nil {
			// A failed batched step cannot be attributed to one request,
			// and a panic mid-step may have left partially written KV rows
			// behind: fail the whole active batch and rebuild the
			// predictor — the catastrophic-but-survivable path. The worker
			// process keeps serving; new requests get a clean predictor,
			// prefix cache included (emptied before the replies, so a
			// caller that saw its request fail sees the gauge at zero).
			bp = s.newBatch()
			s.evicted = 0
			s.count(func(st *Stats) { st.PrefixBlocks = 0 })
			for _, lr := range active {
				s.reply(lr.p, outcome{err: fmt.Errorf("serve: batched step failed: %w", err)}, failed)
			}
			active = active[:0]
			continue
		}
		s.countStep(len(ids))
		for i, lr := range decs {
			done, err := s.trySample(lr, logits[i])
			switch {
			case err != nil:
				// Sampling state is per-request: a panicking strategy (or
				// an injected fault) kills only its own request, and the
				// other in-flight streams finish bitwise-intact.
				s.evict(bp, lr, err)
				active = remove(active, lr)
			case done:
				bp.Drop(lr.slot)
				s.finish(lr)
				active = remove(active, lr)
			}
		}
	}
}

// sampleTok samples one token for lr from logits, delivers its stream event,
// and reports whether the request finished.
func (s *Server) sampleTok(lr *liveReq, logits []float64) bool {
	tok, done := lr.dec.Next(logits)
	lr.last = tok
	if lr.ctx != nil {
		lr.ctx = append(lr.ctx, tok)
	}
	s.stamp(lr.p)
	if lr.p.events != nil {
		// Delivered as soon as this step completes; capacity is pre-sized,
		// so the loop never blocks.
		lr.p.events <- lr.pd.Next(tok)
	}
	return done
}

// ---- panic isolation ----
//
// The loop goroutine is the whole worker: before this layer existed, any
// panic that reached it — a malformed strategy tripping a guard in
// internal/sample, a bug in the predictor, an injected fault — killed the
// process and every in-flight stream. Each loop operation now runs behind
// a recover that converts the panic into an error; per-request operations
// (prefill, sampling, a verify round) evict only the offending request,
// while a batched-step failure fails the batch and rebuilds the predictor.

// trySample is the guarded sampleTok: a panic in the sampling strategy (or
// a fault injected at serve/sample) becomes an error attributed to lr.
func (s *Server) trySample(lr *liveReq, logits []float64) (done bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Site: "sample", Value: v}
		}
	}()
	if err := failpoint.Inject(failpoint.ServeSample); err != nil {
		return false, err
	}
	return s.sampleTok(lr, logits), nil
}

// tryPrefill is the guarded per-request prefill pass (failpoint site
// serve/prefill).
func (s *Server) tryPrefill(bp batchPredictor, lr *liveReq, chunk int) (logits []float64, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Site: "prefill", Value: v}
		}
	}()
	if err := failpoint.Inject(failpoint.ServePrefill); err != nil {
		return nil, err
	}
	return bp.Prefill(lr.slot, lr.forced[:chunk]), nil
}

// trySpec is the guarded speculative verification round (failpoint site
// serve/verify).
func (s *Server) trySpec(bp batchPredictor, lr *liveReq) (done bool, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Site: "verify", Value: v}
		}
	}()
	if err := failpoint.Inject(failpoint.ServeVerify); err != nil {
		return false, err
	}
	return s.specRound(bp, lr), nil
}

// tryStep is the guarded batched decode step (failpoint site serve/step).
func (s *Server) tryStep(bp batchPredictor, ids, toks []int) (logits [][]float64, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Site: "step", Value: v}
		}
	}()
	if err := failpoint.Inject(failpoint.ServeStep); err != nil {
		return nil, err
	}
	return bp.Step(ids, toks), nil
}

// evict fails one request out of the batch with err. The slot release is
// itself guarded: the panic that doomed the request may have left its
// slot-local state inconsistent, and a second panic during cleanup must not
// undo the isolation.
func (s *Server) evict(bp batchPredictor, lr *liveReq, err error) {
	func() {
		defer func() { recover() }()
		bp.Drop(lr.slot)
	}()
	s.reply(lr.p, outcome{err: err}, failed)
}

// slotTarget adapts one BatchedPredictor sequence to the single-sequence
// verification surface sample.Speculative drives.
type slotTarget struct {
	bp   batchPredictor
	slot int
}

func (t slotTarget) ExtendAll(ids []int) [][]float64 { return t.bp.PrefillAll(t.slot, ids) }
func (t slotTarget) Rewind(n int)                    { t.bp.Rewind(t.slot, n) }
func (t slotTarget) Len() int                        { return t.bp.Len(t.slot) }

// specRound runs one speculative verification round for lr and reports
// whether the request finished. The emitted tokens are delivered and counted
// exactly as the batched step's sampled tokens are, so greedy requests keep
// bitwise-identical output and the stats stay coherent.
func (s *Server) specRound(bp batchPredictor, lr *liveReq) bool {
	room := 1 << 30
	if s.window > 0 {
		// Admission guarantees prompt+budget fit the window, so room covers
		// the pending token and at least one draft whenever a round runs.
		room = s.window - bp.Len(lr.slot)
	}
	rr := s.spec.Round(slotTarget{bp, lr.slot}, lr.dec, lr.ctx, room)
	if len(rr.Emitted) > 0 {
		s.stamp(lr.p)
	}
	for _, tok := range rr.Emitted {
		lr.last = tok
		if lr.p.events != nil {
			lr.p.events <- lr.pd.Next(tok)
		}
	}
	lr.ctx = append(lr.ctx, rr.Emitted...)
	s.countSpec(rr.Drafted, rr.Accepted, len(rr.Emitted))
	return rr.Done
}

// remove deletes lr from the batch, preserving order (the round-robin
// cursor and per-step iteration depend on stable ordering). slices.Delete
// zeroes the vacated tail slot, so a finished request's buffers are not
// retained by the backing array while the server idles.
func remove(active []*liveReq, lr *liveReq) []*liveReq {
	if i := slices.Index(active, lr); i >= 0 {
		return slices.Delete(active, i, i+1)
	}
	return active
}

// admit moves a queued request into the decoding batch.
func (s *Server) admit(bp batchPredictor, active *[]*liveReq, p *pending) {
	if p.ctx.Err() != nil {
		s.settle(p)
		return
	}
	ids, err := s.model.EncodePrompt(p.req.Prompt, p.req.MaxTokens)
	if err != nil {
		s.reply(p, outcome{err: err}, failed)
		return
	}
	strat := p.req.Strategy
	if strat == nil {
		strat = sample.Greedy{}
	}
	stop := -1
	if p.req.StopAtEOS {
		stop = tokenizer.EOS
	}
	// The predictor restores whatever prefix of the prompt its cache holds;
	// only the rest is left to prefill.
	slot := bp.Add()
	hit := bp.Attach(slot, ids)
	s.count(func(st *Stats) {
		st.PrefixLookups++
		if hit > 0 {
			st.PrefixHits++
			st.PrefixHitTokens += uint64(hit)
		}
	})
	lr := &liveReq{
		p:      p,
		slot:   slot,
		forced: ids[hit:],
		dec:    sample.NewDecoder(strat, stop, p.req.MaxTokens, mathx.NewRNG(p.req.Seed+977)),
	}
	if p.events != nil {
		lr.pd = lm.NewPieceDecoder(s.backend.Decode)
	}
	if s.spec != nil {
		// Speculative rounds need the full decoded context (the drafter
		// conditions on it); cloned so prefill's reslicing of forced cannot
		// alias it.
		lr.ctx = append([]int(nil), ids...)
	}
	*active = append(*active, lr)
}

// coalesce lingers briefly after a batch forms from idle, gathering more
// concurrent requests so they share the first decoding steps.
func (s *Server) coalesce(bp batchPredictor, active *[]*liveReq) {
	if s.cfg.CoalesceWait <= 0 {
		return
	}
	timer := time.NewTimer(s.cfg.CoalesceWait)
	defer timer.Stop()
	for len(*active) < s.cfg.MaxBatch {
		select {
		case p := <-s.queue:
			s.admit(bp, active, p)
		case <-timer.C:
			return
		case <-s.quit:
			return // the main loop observes quit next
		}
	}
}

// finish decodes a completed request and replies.
func (s *Server) finish(lr *liveReq) {
	s.reply(lr.p, outcome{res: lm.Finish(s.backend, lr.dec.Tokens(), lr.p.req.Options())}, completed)
}

// shutdown fails the active batch and drains the queue.
func (s *Server) shutdown(bp batchPredictor, active []*liveReq) {
	for _, lr := range active {
		bp.Drop(lr.slot)
		s.reply(lr.p, outcome{err: ErrClosed}, failed)
	}
	s.drainQueue()
}

// drainQueue fails everything still queued at shutdown.
func (s *Server) drainQueue() {
	for {
		select {
		case p := <-s.queue:
			s.reply(p, outcome{err: ErrClosed}, failed)
		default:
			return
		}
	}
}

// ---- single-sequence loop (non-transformer backends) ----

// loopSingle serves requests one at a time through the generic decoding
// driver: same queue, validation, streaming, cancellation, and stats
// surface as the batched loop, for backends without a batched predictor.
func (s *Server) loopSingle() {
	defer s.wg.Done()
	for {
		select {
		case p := <-s.queue:
			s.serveSingle(p)
		case <-s.quit:
			s.drainQueue()
			return
		}
	}
}

// serveSingle runs one queued request to completion.
func (s *Server) serveSingle(p *pending) {
	if p.ctx.Err() != nil {
		s.settle(p)
		return
	}
	// The prompt-token split of the batched loop, for parity: the driver
	// below re-encodes, so this costs one extra (cheap) encode.
	if ids, err := s.backend.EncodePrompt(p.req.Prompt, p.req.MaxTokens); err == nil {
		n := uint64(len(ids))
		s.count(func(st *Stats) { st.PromptTokens += n })
	}
	onTok := func(ev sample.Token) error {
		select {
		case <-s.quit:
			return ErrClosed
		default:
		}
		if err := failpoint.Inject(failpoint.ServeSample); err != nil {
			return err
		}
		s.countStep(1)
		s.stamp(p)
		if p.events != nil {
			p.events <- ev
		}
		return nil
	}
	res, err := s.trySingle(p, onTok)
	switch {
	case err == nil:
		s.reply(p, outcome{res: res}, completed)
	case p.ctx.Err() != nil:
		s.settle(p)
	default:
		s.reply(p, outcome{err: err}, failed)
	}
}

// trySingle is the guarded single-sequence driver: a panic anywhere in the
// backend or sampling path fails this request only, and the loop goroutine
// survives to serve the next one.
func (s *Server) trySingle(p *pending, onTok func(sample.Token) error) (res Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Site: "single", Value: v}
		}
	}()
	return lm.StreamOptions(p.ctx, s.backend, p.req.Prompt, onTok, p.req.Options())
}

func (s *Server) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// countStep records one decoding step of the given batch width without
// allocating (the closure form would capture the width and escape). Every
// decode row samples exactly one token, so the same call maintains
// DecodeTokens.
func (s *Server) countStep(rows int) {
	bucket := histBucket(rows, len(s.stats.BatchHist))
	s.mu.Lock()
	s.stats.Steps++
	s.stats.StepRows += uint64(rows)
	s.stats.DecodeTokens += uint64(rows)
	s.stats.BatchHist[bucket]++
	if rows > s.stats.MaxBatch {
		s.stats.MaxBatch = rows
	}
	s.mu.Unlock()
}

// countSpec records one speculative verification round: the round itself,
// the draft/accept split and acceptance-length histogram (drafting rounds
// only, matching sample.SpecStats), and the emitted tokens under
// DecodeTokens so token throughput spans both decode paths.
func (s *Server) countSpec(drafted, accepted, emitted int) {
	s.mu.Lock()
	s.stats.SpecRounds++
	if drafted > 0 {
		s.stats.SpecDrafted += uint64(drafted)
		s.stats.SpecAccepted += uint64(accepted)
		b := accepted
		if b >= len(s.stats.SpecAcceptHist) {
			b = len(s.stats.SpecAcceptHist) - 1
		}
		s.stats.SpecAcceptHist[b]++
	}
	s.stats.DecodeTokens += uint64(emitted)
	s.mu.Unlock()
}

// countPrefill records one chunked-prefill pass of the given token count;
// sampled marks a pass that completed its prompt, whose logits immediately
// yield one sampled token (counted here so DecodeTokens spans every
// sampled token without an extra lock in the sampling path). The pass may
// have published prompt blocks to bp's prefix cache, so the occupancy
// counters are refreshed under the same lock; the predictor's eviction count
// restarts when the loop rebuilds it, hence the delta.
func (s *Server) countPrefill(bp batchPredictor, chunk int, sampled bool) {
	bucket := histBucket(chunk, len(s.stats.PrefillChunkHist))
	blocks, evicted := bp.PrefixBlocks()
	s.mu.Lock()
	s.stats.PromptTokens += uint64(chunk)
	s.stats.PrefillChunkHist[bucket]++
	if sampled {
		s.stats.DecodeTokens++
	}
	s.stats.PrefixBlocks = blocks
	s.stats.PrefixEvictions += evicted - s.evicted
	s.mu.Unlock()
	s.evicted = evicted
}

// batchPredictor is the slice of transformer.BatchedPredictor the loop uses
// (an interface so the admission helpers and the chunk scheduling stay
// testable).
type batchPredictor interface {
	Add() int
	Attach(id int, ids []int) int
	PrefixBlocks() (resident int, evicted uint64)
	Drop(id int)
	Step(ids []int, tokens []int) [][]float64
	Prefill(id int, ids []int) []float64
	PrefillAll(id int, ids []int) [][]float64
	Rewind(id int, n int)
	Len(id int) int
}
