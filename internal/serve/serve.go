// Package serve is the batched generation front end: a request queue that
// coalesces concurrent Generate calls into batched forward passes over the
// model's incremental inference path (continuous batching). Each request
// keeps its own sampling strategy, seed, and token budget, and is dropped
// from the batch the moment its context is cancelled. One background loop
// owns the predictor; callers only ever touch channels, so the server is
// safe for arbitrary concurrent use.
//
// The loop is two layers: Server.loop is everything that needs a channel or
// a clock (idle wait, the CoalesceWait linger, queue top-up, shutdown), and
// batch.iterate is one synchronous scheduling iteration over loop-owned
// state, which tests drive with plain calls. Every call into a model or a
// strategy runs behind one recovery boundary (guard), and a request leaves
// the batch in one place (retire).
//
// Results stream: Stream delivers per-token events as each continuous-
// batching step completes, and the final text is bitwise identical to the
// unbatched lm.Gen / core.LLM.Generate result for the same request.
//
// Every lm.LanguageModel is served by that one loop: the transformer
// pipeline (core.LLM) through transformer.BatchedPredictor, the other
// substrates (n-gram, FFN-LM, RNN) through one sample.Stepper per sequence
// behind the same seam (stepperBatch).
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
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
// running. Site names the loop operation that panicked (admit, prefill,
// sample, verify, step, finish).
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
//
// The counting is the same for every backend: a request's first token is
// sampled from its last prefill chunk's logits, so it counts toward
// DecodeTokens but occupies no step row (without speculation a request rides
// tokens − 1 steps). Non-transformer backends have no prefix cache — each
// admission is a PrefixLookups miss — and ignore Config.Speculate.
type Stats struct {
	Requests  uint64 `json:"requests"`  // accepted by Do/Generate (past validation)
	Completed uint64 `json:"completed"` // finished with a result
	Cancelled uint64 `json:"cancelled"` // dropped by context cancellation
	Failed    uint64 `json:"failed"`    // failed by the server: prompt errors, shutdown, panics, deadlines, stalls, failed steps
	Steps     uint64 `json:"steps"`     // decode steps executed
	StepRows  uint64 `json:"step_rows"` // total sequence-rows fed across decode steps
	MaxBatch  int    `json:"max_batch"` // largest per-step decode batch observed

	PromptTokens uint64 `json:"prompt_tokens"` // prompt tokens ingested by prefill
	DecodeTokens uint64 `json:"decode_tokens"` // tokens sampled (incl. each prompt's first, sampled from prefill logits)

	// Prefix-cache counters (see transformer.BatchedPredictor.Attach): every
	// admitted prompt is one lookup, a hit is a lookup that restored at
	// least one sixteen-token block, and PrefixHitTokens is the
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

// Server owns one model and the serving loop that decodes for it.
type Server struct {
	model  lm.LanguageModel
	window int // 0 = unbounded
	cfg    Config

	// newBatch builds the loop's predictor; a seam the scheduling tests
	// replace to observe the exact prefill/decode call sequence.
	newBatch func() batchPredictor

	// spec is the speculative-decoding driver (Config.Speculate on a
	// predictor that can verify); only the loop goroutine touches it.
	spec *sample.Speculative

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
	// driving the batch directly).
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
	slot   int   // predictor sequence handle; -1 until admission takes one
	forced []int // prompt tokens not yet fed (prefill)
	last   int   // most recently sampled token (decode phase)
	ctx    []int // full decoded context incl. last (speculative mode only)
	dec    *sample.Decoder
	pd     *lm.PieceDecoder // non-nil when streaming
}

// New starts a server over the transformer pipeline. Callers must Close it
// to stop the background loop.
func New(model *core.LLM, cfg Config) *Server { return NewBackend(model, cfg) }

// NewBackend starts a server over any LanguageModel: one continuous-batching
// loop with identical request semantics (queue, per-request options, chunked
// prefill, streaming, cancellation, stats) whatever the substrate. Only how a
// step is computed differs — see batchPredictor.
func NewBackend(m lm.LanguageModel, cfg Config) *Server {
	s := newServer(m, cfg)
	s.wg.Add(1)
	go s.loop()
	return s
}

func newServer(m lm.LanguageModel, cfg Config) *Server {
	s := &Server{
		model:  m,
		window: m.ContextWindow(),
		cfg:    cfg.withDefaults(),
		quit:   make(chan struct{}),
	}
	// The transformer steps every sequence in one cross-sequence pass and can
	// verify a draft block; any other backend gets one stepper per slot and
	// ignores Speculate.
	llm, batched := m.(*core.LLM)
	s.newBatch = func() batchPredictor {
		if batched {
			return llm.Model.NewBatchedPredictor()
		}
		return &stepperBatch{model: m, seqs: make(map[int]sample.Stepper)}
	}
	if batched && s.cfg.Speculate > 0 && s.cfg.Drafter != nil {
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
	_, err := s.model.EncodePrompt(req.Prompt, req.MaxTokens)
	return err
}

// enqueue submits p, counting it as accepted and registering it with the
// stall watchdog.
func (s *Server) enqueue(ctx context.Context, p *pending) error {
	s.count(func(st *Stats) { st.Requests++ })
	if s.watch != nil {
		s.stamp(p)
		s.wmu.Lock()
		s.watch[p] = struct{}{}
		s.wmu.Unlock()
	}
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
	return s.Stream(ctx, req, nil)
}

// Stream is Do with per-token delivery: onToken (when non-nil) is invoked,
// in order, with every sampled token the moment its decoding step completes
// — one continuous-batching step shared with the other in-flight requests.
// The concatenated event pieces and the final Result.Text are bitwise
// identical to the unbatched path. A non-nil error from onToken cancels the
// request.
func (s *Server) Stream(ctx context.Context, req Request, onToken func(sample.Token) error) (Result, error) {
	if err := s.validateBudget(req); err != nil {
		return Result{}, err
	}
	ctx, cancel := s.prepare(ctx, req)
	defer cancel(nil)
	p := &pending{ctx: ctx, req: req, done: make(chan outcome, 1), cancel: cancel}
	if onToken != nil {
		// The loop must never block on delivery: capacity covers every
		// token the decoder can produce. Without a callback the channel
		// stays nil and its select case below never fires.
		p.events = make(chan sample.Token, req.MaxTokens+1)
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
		// The loop sends a request's events before its outcome, so whatever
		// is still undelivered is already buffered.
		for len(p.events) > 0 {
			deliver(<-p.events)
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
			// The loop may have replied just before shutting down.
			select {
			case o := <-p.done:
				return finish(o)
			default:
				return Result{}, ErrClosed
			}
		}
	}
}

// ---- the serving loop: mechanism ----

// loop is the half of the serving loop that needs channels and clocks: it
// blocks while the batch is empty, lingers after one forms from idle, tops a
// running batch up without waiting, and shuts down on quit. Between those it
// calls batch.iterate, which holds the scheduling policy and touches neither.
func (s *Server) loop() {
	defer s.wg.Done()
	b := &batch{Server: s, bp: s.newBatch()}
	for {
		if len(b.active) == 0 {
			select {
			case p := <-s.queue:
				b.admit(p)
				s.linger(b)
			case <-s.quit:
			}
		} else {
			// Top up without waiting: the loop is the queue's only
			// consumer, so a non-empty queue cannot block the receive.
			for len(b.active) < s.cfg.MaxBatch && len(s.queue) > 0 {
				b.admit(<-s.queue)
			}
		}
		select {
		case <-s.quit:
			// Shutdown: fail the active batch, then whatever is still queued.
			for n := len(b.active); n > 0; n-- {
				b.retire(b.active[n-1], false, ErrClosed)
			}
			for len(s.queue) > 0 {
				s.reply(<-s.queue, outcome{err: ErrClosed}, failed)
			}
			return
		default:
		}
		b.iterate()
	}
}

// linger holds a batch that just formed from idle open for CoalesceWait,
// gathering more concurrent requests so they share the first decoding steps.
func (s *Server) linger(b *batch) {
	if s.cfg.CoalesceWait <= 0 {
		return
	}
	timer := time.NewTimer(s.cfg.CoalesceWait)
	defer timer.Stop()
	for len(b.active) < s.cfg.MaxBatch {
		select {
		case p := <-s.queue:
			b.admit(p)
		case <-timer.C:
			return
		case <-s.quit:
			return // the main loop observes quit next
		}
	}
}

// ---- the serving loop: policy and execution ----

// batch is the loop goroutine's private state. Nothing in it is shared, so
// admit and iterate are plain synchronous calls: the loop makes them between
// channel operations, the scheduling tests make them directly.
type batch struct {
	*Server
	bp     batchPredictor
	active []*liveReq // in admission order; the cursors index into it
	rr, sr int        // round-robin cursors: next request to prefill, to verify

	// Step buffers, reused across iterations: the decode loop allocates
	// nothing per step beyond what a request's own lifecycle requires.
	ids, toks []int
	decs      []*liveReq

	evicted uint64 // bp's prefix-eviction count as of the last countPrefill
}

// iterate is one scheduling iteration over the active batch:
//
//   - the cancellation sweep: client cancellations, deadline expiries
//     (ErrDeadline cause) and watchdog kills (ErrStalled cause) all reclaim
//     their batch slot here, between decode steps;
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
// from the prefill logits immediately (the exact logits a one-token-per-step
// loop would sample, so outputs are unchanged), may take this iteration's
// verification round and joins this iteration's step. Every decode-phase
// request advances at least one token per iteration — via its speculative
// round or via the batched step — so speculation changes scheduling only by
// letting one request advance several tokens.
func (b *batch) iterate() {
	for i := 0; i < len(b.active); {
		if lr := b.active[i]; lr.p.ctx.Err() != nil {
			b.retire(lr, false, nil)
		} else {
			i++
		}
	}
	if lr := b.next(&b.rr, true); lr != nil {
		b.prefill(lr)
	}
	var sped *liveReq
	if b.spec != nil {
		if sped = b.next(&b.sr, false); sped != nil {
			b.verify(sped)
		}
	}
	b.step(sped)
}

// next is the round-robin pick both bounded-intrusion phases share: the
// first request at or after *cur, wrapping, that is prefilling (or, with
// prefilling false, decoding), leaving *cur just past it.
func (b *batch) next(cur *int, prefilling bool) *liveReq {
	n := len(b.active)
	for i := 0; i < n; i++ {
		j := (*cur + i) % n
		if lr := b.active[j]; (len(lr.forced) > 0) == prefilling {
			*cur = (j + 1) % n
			return lr
		}
	}
	return nil
}

// prefill ingests lr's next prompt chunk. A failed pass implicates only lr
// (per-sequence KV state is slot-local), so it alone leaves the batch.
func (b *batch) prefill(lr *liveReq) {
	chunk := len(lr.forced)
	if c := b.cfg.PrefillChunk; c > 0 && chunk > c {
		chunk = c
	}
	var logits []float64
	if err := guard(failpoint.ServePrefill, func() { logits = b.bp.Prefill(lr.slot, lr.forced[:chunk]) }); err != nil {
		b.retire(lr, false, err)
		return
	}
	lr.forced = lr.forced[chunk:]
	b.stamp(lr.p)
	b.countPrefill(chunk, len(lr.forced) == 0)
	if len(lr.forced) == 0 {
		// Prompt fully ingested: the chunk's logits are the first to sample.
		b.sample(lr, logits)
	}
}

// sample draws lr's next token from logits. Sampling state is per-request:
// a panicking strategy (or an injected fault) retires only its own request,
// and the other in-flight streams finish bitwise-intact.
func (b *batch) sample(lr *liveReq, logits []float64) {
	var done bool
	err := guard(failpoint.ServeSample, func() {
		var tok int
		tok, done = lr.dec.Next(logits)
		b.emit(lr, tok)
	})
	if done || err != nil {
		b.retire(lr, done, err)
	}
}

// verify runs lr's speculative verification round: lr advances several
// tokens at once and sits out this iteration's batched step. The emitted
// tokens are delivered and counted exactly as the step's sampled tokens are,
// so greedy requests keep bitwise-identical output and the stats stay
// coherent.
func (b *batch) verify(lr *liveReq) {
	var done bool
	err := guard(failpoint.ServeVerify, func() {
		room := 1 << 30
		if b.window > 0 {
			// Admission guarantees prompt+budget fit the window, so room
			// covers the pending token and at least one draft.
			room = b.window - b.bp.Len(lr.slot)
		}
		rr := b.spec.Round(slotTarget{b.bp, lr.slot}, lr.dec, lr.ctx, room)
		for _, tok := range rr.Emitted {
			b.emit(lr, tok)
		}
		b.countSpec(rr.Drafted, rr.Accepted, len(rr.Emitted))
		done = rr.Done
	})
	if done || err != nil {
		b.retire(lr, done, err)
	}
}

// step runs one batched decode step over every decode-phase request but
// skip (this iteration's verified request) and samples each row.
func (b *batch) step(skip *liveReq) {
	b.ids, b.toks, b.decs = b.ids[:0], b.toks[:0], b.decs[:0]
	for _, lr := range b.active {
		if len(lr.forced) == 0 && lr != skip {
			b.ids = append(b.ids, lr.slot)
			b.toks = append(b.toks, lr.last)
			b.decs = append(b.decs, lr)
		}
	}
	if len(b.ids) == 0 {
		return
	}
	var logits [][]float64
	if err := guard(failpoint.ServeStep, func() { logits = b.bp.Step(b.ids, b.toks) }); err != nil {
		// A failed batched step cannot be attributed to one request, and a
		// panic mid-step may have left partially written KV rows behind:
		// fail the whole active batch and rebuild the predictor — the
		// catastrophic-but-survivable path. The worker process keeps
		// serving; new requests get a clean predictor, prefix cache included
		// (emptied before the replies, so a caller that saw its request fail
		// sees the gauge at zero).
		b.bp = b.newBatch()
		b.evicted = 0
		b.count(func(st *Stats) { st.PrefixBlocks = 0 })
		for _, lr := range b.active {
			b.reply(lr.p, outcome{err: fmt.Errorf("serve: batched step failed: %w", err)}, failed)
		}
		clear(b.active)
		b.active = b.active[:0]
		return
	}
	b.countStep(len(b.ids))
	for i, lr := range b.decs {
		b.sample(lr, logits[i])
	}
}

// guard is the loop's one recovery boundary. The loop goroutine is the whole
// worker: a panic reaching it — a strategy tripping a check in
// internal/sample, a bug in the predictor or tokenizer, an injected fault —
// would kill the process and every in-flight stream. So every call the loop
// makes into a model, strategy or drafter runs as op here and comes back as
// an error: the failpoint's, or a *PanicError. site is the failpoint.Serve*
// site evaluated first, or a bare operation name where there is none (admit,
// finish). op must not escape: callers' closures stay on their stacks.
func guard(site string, op func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Site: strings.TrimPrefix(site, "serve/"), Value: v}
		}
	}()
	if err := failpoint.Inject(site); err != nil {
		return err
	}
	op()
	return nil
}

// retire is the one place a request leaves the batch: its slot is released,
// it is removed with the cursors kept on the requests they pointed at, and
// its terminal outcome is delivered — failed with err, finished (done), or,
// with neither, settled by whatever ended its context.
func (b *batch) retire(lr *liveReq, done bool, err error) {
	if lr.slot >= 0 {
		// Guarded: the panic that doomed the request may have left its
		// slot-local state inconsistent, and a second panic during cleanup
		// must not undo the isolation.
		func() {
			defer func() { recover() }()
			b.bp.Drop(lr.slot)
		}()
	}
	// Order is preserved (the cursors and per-step iteration depend on it);
	// slices.Delete zeroes the vacated tail, so a finished request's buffers
	// are not retained by the backing array while the server idles.
	i := slices.Index(b.active, lr)
	b.active = slices.Delete(b.active, i, i+1)
	if i < b.rr {
		b.rr--
	}
	if i < b.sr {
		b.sr--
	}
	var res Result
	if done && err == nil {
		err = guard("finish", func() { res = lm.Finish(b.model, lr.dec.Tokens(), lr.p.req.Options()) })
	}
	switch {
	case err != nil:
		b.reply(lr.p, outcome{err: err}, failed)
	case done:
		b.reply(lr.p, outcome{res: res}, completed)
	default:
		b.settle(lr.p)
	}
}

// admit moves a queued request into the batch; a prompt error, or a panic
// anywhere in open, fails that request alone.
func (b *batch) admit(p *pending) {
	if p.ctx.Err() != nil {
		b.settle(p)
		return
	}
	lr := &liveReq{p: p, slot: -1}
	b.active = append(b.active, lr)
	var err error
	if perr := guard("admit", func() { err = b.open(lr) }); perr != nil {
		err = perr
	}
	if err != nil {
		b.retire(lr, false, err)
	}
}

// open fills in lr's decoding state. The predictor restores whatever prefix
// of the prompt its cache holds; only the rest is left to prefill.
func (b *batch) open(lr *liveReq) error {
	req := lr.p.req
	ids, err := b.model.EncodePrompt(req.Prompt, req.MaxTokens)
	if err != nil {
		return err
	}
	lr.slot = b.bp.Add()
	hit := b.bp.Attach(lr.slot, ids)
	b.count(func(st *Stats) {
		st.PrefixLookups++
		if hit > 0 {
			st.PrefixHits++
			st.PrefixHitTokens += uint64(hit)
		}
	})
	lr.forced = ids[hit:]
	strat := req.Strategy
	if strat == nil {
		strat = sample.Greedy{}
	}
	stop := -1
	if req.StopAtEOS {
		stop = tokenizer.EOS
	}
	lr.dec = sample.NewDecoder(strat, stop, req.MaxTokens, mathx.NewRNG(req.Seed+977))
	if lr.p.events != nil {
		lr.pd = lm.NewPieceDecoder(b.model.Decode)
	}
	if b.spec != nil {
		// Speculative rounds need the full decoded context (the drafter
		// conditions on it); cloned so prefill's reslicing of forced cannot
		// alias it.
		lr.ctx = append([]int(nil), ids...)
	}
	return nil
}

// emit records tok as lr's newest token and delivers its stream event: the
// moment its step or round completes, never blocking (the channel is
// pre-sized for the whole budget).
func (b *batch) emit(lr *liveReq, tok int) {
	lr.last = tok
	if lr.ctx != nil {
		lr.ctx = append(lr.ctx, tok)
	}
	b.stamp(lr.p)
	if lr.p.events != nil {
		lr.p.events <- lr.pd.Next(tok)
	}
}

// slotTarget adapts one predictor sequence to the single-sequence
// verification surface sample.Speculative drives.
type slotTarget struct {
	bp   batchPredictor
	slot int
}

func (t slotTarget) ExtendAll(ids []int) [][]float64 { return t.bp.PrefillAll(t.slot, ids) }
func (t slotTarget) Rewind(n int)                    { t.bp.Rewind(t.slot, n) }
func (t slotTarget) Len() int                        { return t.bp.Len(t.slot) }

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
func (b *batch) countPrefill(chunk int, sampled bool) {
	bucket := histBucket(chunk, len(b.stats.PrefillChunkHist))
	blocks, evicted := b.bp.PrefixBlocks()
	b.mu.Lock()
	b.stats.PromptTokens += uint64(chunk)
	b.stats.PrefillChunkHist[bucket]++
	if sampled {
		b.stats.DecodeTokens++
	}
	b.stats.PrefixBlocks = blocks
	b.stats.PrefixEvictions += evicted - b.evicted
	b.mu.Unlock()
	b.evicted = evicted
}

// batchPredictor is what the loop needs from a model: per-slot incremental
// state and the passes that advance it (transformer.BatchedPredictor,
// stepperBatch, or the scheduling tests' recording fake). A logits row stays
// valid until the next call that advances its slot: the loop samples every
// row of a Step before it calls the predictor again.
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

// stepperBatch serves any LanguageModel with one sample.Stepper per slot: a
// Step is one Append per row, so requests share the schedule (interleaving,
// chunked prefill, MaxBatch) though not the arithmetic. Each stepper returns
// its own logits slice, so rows of one Step never alias. No prefix cache and
// nothing to verify with: newServer builds no speculative driver over it, so
// PrefillAll, Rewind and Len are unreachable.
type stepperBatch struct {
	model lm.LanguageModel
	seqs  map[int]sample.Stepper
	next  int
	rows  [][]float64 // Step's result, reused
}

func (sb *stepperBatch) Add() int {
	id := sb.next
	sb.next++
	sb.seqs[id] = sb.model.NewStepper()
	return id
}

func (sb *stepperBatch) Drop(id int)                 { delete(sb.seqs, id) }
func (sb *stepperBatch) Attach(int, []int) int       { return 0 }
func (sb *stepperBatch) PrefixBlocks() (int, uint64) { return 0, 0 }

func (sb *stepperBatch) Step(ids, tokens []int) [][]float64 {
	sb.rows = sb.rows[:0]
	for i, id := range ids {
		sb.rows = append(sb.rows, sb.seqs[id].Append(tokens[i]))
	}
	return sb.rows
}

func (sb *stepperBatch) Prefill(id int, ids []int) (logits []float64) {
	st := sb.seqs[id]
	if ex, ok := st.(sample.Extender); ok {
		return ex.Extend(ids)
	}
	for _, tok := range ids {
		logits = st.Append(tok)
	}
	return logits
}

func (sb *stepperBatch) PrefillAll(int, []int) [][]float64 { panic("serve: no verify surface") }
func (sb *stepperBatch) Rewind(int, int)                   { panic("serve: no verify surface") }
func (sb *stepperBatch) Len(int) int                       { panic("serve: no verify surface") }
