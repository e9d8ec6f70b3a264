// Package serve is the batched generation front end: a request queue that
// coalesces concurrent requests into batched forward passes over the
// model's incremental inference path (continuous batching). Each request
// keeps its own sampling strategy, seed, and token budget, and is dropped
// from the batch the moment its context is cancelled. One background loop
// owns the predictor; callers only ever touch channels, so the server is
// safe for arbitrary concurrent use.
//
// The loop is two layers: Server.loop is everything that needs a channel
// (idle wait, queue top-up, shutdown), and batch.iterate is one synchronous
// scheduling iteration over loop-owned state, which tests drive with plain
// calls. Every call into a model or a strategy runs behind one recovery
// boundary (guard), and a request leaves the batch in one place (retire).
//
// Results stream: Stream delivers per-token events as each continuous-
// batching step completes, and the final text is bitwise identical to the
// lm.Gen result for the same request: lm.Gen is the oracle every served
// completion is checked against.
//
// The served model is the transformer pipeline (core.LLM), stepped through
// transformer.BatchedPredictor. The §5 ladder substrates (n-gram, FFN-LM,
// RNN) run through lm.Gen and lm.Stream, not through a server.
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
	"repro/internal/sample"
	"repro/internal/transformer"
)

// ErrClosed is returned for requests submitted to (or stranded in) a server
// that has been Closed.
var ErrClosed = errors.New("serve: server closed")

// ErrDeadline is returned for requests that exhaust their per-request
// deadline (Request.Timeout, or the server-wide Config.RequestTimeout
// default). The loop enforces it between passes, so a slow or stuck
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

// PanicError wraps a panic recovered inside the serving loop. Site names the
// loop operation that panicked: at admit, prefill, sample or finish the
// request it implicates fails alone; at step, the iteration's forward
// pass over every decode row and the prompt chunk, the whole active batch
// fails and the loop rebuilds its predictor. The prefill site is evaluated
// before the pass, so an injected prompt fault costs only its request; a
// real panic while a chunk is ingested costs the batch, though validated
// inputs (EncodePrompt truncation, the MaxTokens bound) reach none.
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

// Config tunes the batching loop. A MaxBatch, QueueDepth or PrefillChunk
// of zero or less selects that field's default.
type Config struct {
	// MaxBatch is the largest number of sequences decoded per step
	// (default 8).
	MaxBatch int
	// QueueDepth is the pending-request buffer; submissions beyond it
	// block in Do/Stream (default 64).
	QueueDepth int
	// PrefillChunk caps how many prompt rows one forward pass carries
	// (default 64). Each iteration's pass holds every decode-phase
	// request's next token plus at most one prompt chunk, so this bounds
	// the extra work a mid-decode request's token shares its pass with:
	// one chunk's rows, regardless of prompt length, and a pass is never
	// wider than MaxBatch + PrefillChunk rows (72 at the defaults), the
	// width the predictor's pass arena keeps. Larger chunks ingest prompts
	// in fewer passes, and each pass pays a fixed hand-off per layer, so a
	// prompt's time to first token falls; smaller chunks keep in-flight
	// streams smoother. The default is sized on
	// transformer.BenchmarkPrefillChunk (EXPERIMENTS E43): at the serving
	// benchmark's shape on two cores, 64 rows cost less per token than 32,
	// and eight decode rows beside a 64-row chunk wait about one pass of
	// 0.9 ms (1.4 ms on one core).
	PrefillChunk int
	// RequestTimeout is the server-side default deadline applied to
	// requests that do not carry their own Request.Timeout; 0 disables.
	// Enforced between iterations, so a request can overrun by at most
	// one pass.
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
	if c.PrefillChunk <= 0 {
		c.PrefillChunk = 64
	}
	return c
}

// Request is one generation job — the struct form of the unified generation
// options, with the prompt attached. Build it directly or with NewRequest.
type Request struct {
	Prompt    string
	MaxTokens int             // tokens to generate; must be in [1, model window]
	Strategy  sample.Strategy // nil = greedy
	Seed      uint64          // per-request sampling seed
	StopAtEOS bool            // stop at the sentence separator and trim it
	// Timeout is this request's end-to-end deadline, measured from
	// submission; 0 falls back to Config.RequestTimeout (and negative is
	// rejected at validation). On expiry the request fails with
	// ErrDeadline between passes and its batch slot is reclaimed.
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

// Options converts the request back to the options struct, for lm.Finish:
// the loop trims and decodes a finished request exactly as lm.Stream does.
func (r Request) Options() sample.Options {
	return sample.Options{
		MaxTokens: r.MaxTokens, Strategy: r.Strategy,
		Seed: r.Seed, StopAtEOS: r.StopAtEOS, Timeout: r.Timeout,
	}
}

// Result is a finished generation (same shape as the direct lm.Gen path).
type Result = lm.Result

// Stats is a snapshot of server counters. Each loop iteration makes one
// forward pass carrying every decode-phase request's next token (a decode
// row) and at most one prompt chunk: Steps counts the passes with a decode
// row and StepRows their decode rows, so StepRows/Steps is the mean decode
// batch actually achieved; MaxBatch is the peak. PromptTokens and
// DecodeTokens split throughput by phase, so prefill and decode rates are
// separately observable. Once the server is idle, Requests == Completed +
// Cancelled + Failed.
//
// PromptTokens counts prompt tokens run through a pass; the prompt positions
// the predictor's prefix cache restored instead are counted in
// PrefixHitTokens. Once the server is idle and no request was cut off
// mid-prompt (cancelled, failed or evicted before its first token),
// PromptTokens + PrefixHitTokens equals the total prompt tokens admitted.
//
// A request's first token is sampled from the logits of the pass that
// carried its last prompt chunk, so it counts toward DecodeTokens but
// occupies no decode row (a request is a decode row in tokens − 1 passes).
type Stats struct {
	Requests  uint64 `json:"requests"`  // accepted by Do/Stream (past validation)
	Completed uint64 `json:"completed"` // finished with a result
	Cancelled uint64 `json:"cancelled"` // dropped by context cancellation
	Failed    uint64 `json:"failed"`    // failed by the server: prompt errors, shutdown, panics, deadlines, stalls, failed passes
	Steps     uint64 `json:"steps"`     // passes that carried at least one decode row
	StepRows  uint64 `json:"step_rows"` // decode rows across those passes
	MaxBatch  int    `json:"max_batch"` // most decode rows in one pass

	PromptTokens uint64 `json:"prompt_tokens"` // prompt tokens ingested by passes
	DecodeTokens uint64 `json:"decode_tokens"` // tokens sampled (incl. each prompt's first, sampled from the pass that finished it)

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

	// PrefillChunkHist is a histogram of prompt chunk sizes, one entry per
	// chunk a pass carried: bucket i counts chunks of size in
	// (2^(i-1), 2^i] (bucket 0 is size 1, the last bucket collects
	// everything larger than 2^7).
	PrefillChunkHist [9]uint64 `json:"prefill_chunk_hist"`

	// BatchHist is the same power-of-two histogram over the decode rows of
	// each pass that had any. Weight traffic per pass is near-constant, so
	// the histogram shows directly how well traffic amortizes that fixed
	// cost: mass in the higher buckets means each weight stream served many
	// sequences.
	BatchHist [9]uint64 `json:"batch_hist"`

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
	model *core.LLM
	cfg   Config

	// newBatch builds the loop's predictor; a seam the scheduling tests
	// replace to observe the exact sequence of passes.
	newBatch func() batchPredictor

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
	slot   int    // predictor sequence handle; -1 until admission takes one
	forced []int  // prompt tokens not yet fed (prefill)
	last   [1]int // most recently sampled token (decode phase); an array so a pass's chunk can slice it
	dec    *sample.Decoder
	pd     *lm.PieceDecoder // non-nil when streaming
}

// New starts a server over the transformer pipeline. Callers must Close it
// to stop the background loop.
func New(model *core.LLM, cfg Config) *Server {
	s := newServer(model, cfg)
	s.wg.Add(1)
	go s.loop()
	return s
}

func newServer(m *core.LLM, cfg Config) *Server {
	s := &Server{
		model: m,
		cfg:   cfg.withDefaults(),
		quit:  make(chan struct{}),
	}
	s.newBatch = func() batchPredictor { return m.Model.NewBatchedPredictor() }
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

// Gen enqueues a generation built from the unified functional options and
// blocks until it completes.
func (s *Server) Gen(ctx context.Context, prompt string, opts ...sample.Option) (Result, error) {
	return s.Do(ctx, NewRequest(prompt, opts...))
}

// validateBudget is the cheap admission precondition Do and Stream check
// before enqueueing; prompt errors surface at admission, which encodes the
// prompt anyway. The budget and strategy rule is lm.Check, lm.Stream's own,
// so a malformed request (e.g. a non-positive temperature) is rejected at
// the door instead of tripping a panic guard inside the batching loop, and
// the server accepts exactly the requests the oracle does. Only the
// deadline is the server's own.
func (s *Server) validateBudget(req Request) error {
	if err := lm.Check(req.Options(), s.model.ContextWindow()); err != nil {
		return err
	}
	if req.Timeout < 0 {
		return fmt.Errorf("serve: Timeout %v must not be negative", req.Timeout)
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

// loop is the half of the serving loop that needs channels: it blocks while
// the batch is empty, runs a batch that forms from idle at once, tops a
// running batch up without waiting, and shuts down on quit. A request that
// arrives while a pass runs joins at the next iteration boundary. Between
// those it calls batch.iterate, which holds the scheduling policy and never
// blocks.
func (s *Server) loop() {
	defer s.wg.Done()
	b := &batch{Server: s, bp: s.newBatch()}
	for {
		if len(b.active) == 0 {
			select {
			case p := <-s.queue:
				b.admit(p)
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

// ---- the serving loop: policy and execution ----

// batch is the loop goroutine's private state. Nothing in it is shared, so
// admit and iterate are plain synchronous calls: the loop makes them between
// channel operations, the scheduling tests make them directly.
type batch struct {
	*Server
	bp     batchPredictor
	active []*liveReq // in admission order; rr indexes into it
	rr     int        // round-robin cursor: the next request to prefill

	// Pass buffers, reused across iterations: the loop allocates nothing per
	// pass beyond what a request's own lifecycle requires.
	chunks []transformer.Chunk
	decs   []*liveReq

	evicted uint64 // bp's prefix-eviction count as of the last countPass
}

// iterate is one scheduling iteration over the active batch: the
// cancellation sweep — client cancellations, deadline expiries (ErrDeadline
// cause) and watchdog kills (ErrStalled cause) all reclaim their batch slot
// here, between passes — then exactly one forward pass over every
// decode-phase request and at most one prompt chunk. So every decode-phase
// request advances one token per iteration.
func (b *batch) iterate() {
	for i := 0; i < len(b.active); {
		if lr := b.active[i]; lr.p.ctx.Err() != nil {
			b.retire(lr, false, nil)
		} else {
			i++
		}
	}
	b.pass()
}

// next is the round-robin prefill pick: the first request at or after rr,
// wrapping, that is still prefilling, leaving rr just past it.
func (b *batch) next() *liveReq {
	n := len(b.active)
	for i := 0; i < n; i++ {
		j := (b.rr + i) % n
		if lr := b.active[j]; len(lr.forced) > 0 {
			b.rr = (j + 1) % n
			return lr
		}
	}
	return nil
}

// pass runs the iteration's forward pass: at most one prompt chunk of at most
// PrefillChunk tokens, round-robin over the prefilling requests, and a decode
// row for every decode-phase request. A chunk that finishes its prompt is
// sampled first, so its request's first token goes out ahead of the pass's
// other tokens; the request is a decode row from the next pass on.
// serve/prefill is evaluated for the chunk before the pass: an injected
// prompt fault retires only its request, and the pass runs without the chunk.
func (b *batch) pass() {
	b.chunks, b.decs = b.chunks[:0], b.decs[:0]
	chunk := 0
	if pre := b.next(); pre != nil {
		if err := guard(failpoint.ServePrefill, func() {}); err != nil {
			b.retire(pre, false, err)
		} else {
			chunk = min(len(pre.forced), b.cfg.PrefillChunk)
			b.chunks = append(b.chunks, transformer.Chunk{ID: pre.slot, Tokens: pre.forced[:chunk]})
			b.decs = append(b.decs, pre)
		}
	}
	for _, lr := range b.active {
		if len(lr.forced) == 0 {
			b.chunks = append(b.chunks, transformer.Chunk{ID: lr.slot, Tokens: lr.last[:]})
			b.decs = append(b.decs, lr)
		}
	}
	if len(b.chunks) == 0 {
		return
	}
	var logits [][]float64
	if err := guard(failpoint.ServeStep, func() { logits = b.bp.Pass(b.chunks) }); err != nil {
		// A failed pass cannot be attributed to one request, and a panic
		// mid-pass may have left partially written KV rows behind: fail the
		// whole active batch and rebuild the predictor — the
		// catastrophic-but-survivable path. The worker process keeps
		// serving; new requests get a clean predictor, prefix cache included
		// (emptied before the replies, so a caller that saw its request fail
		// sees the gauge at zero).
		b.bp = b.newBatch()
		b.evicted = 0
		b.count(func(st *Stats) { st.PrefixBlocks = 0 })
		for _, lr := range b.active {
			b.reply(lr.p, outcome{err: fmt.Errorf("serve: batched pass failed: %w", err)}, failed)
		}
		clear(b.active)
		b.active = b.active[:0]
		return
	}
	sampled, rows := b.decs, len(b.decs)
	if chunk > 0 {
		pre := b.decs[0]
		pre.forced = pre.forced[chunk:]
		b.stamp(pre.p)
		if rows--; len(pre.forced) > 0 {
			sampled, logits = b.decs[1:], logits[1:]
		}
	}
	b.countPass(rows, chunk, len(sampled))
	for i, lr := range sampled {
		b.sample(lr, logits[i])
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

// guard is the loop's one recovery boundary. The loop goroutine is the whole
// worker: a panic reaching it — a strategy tripping a check in
// internal/sample, a bug in the predictor or tokenizer, an injected fault —
// would kill the process and every in-flight stream. So every call the loop
// makes into a model or strategy runs as op here and comes back as
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
// it is removed with the cursor kept on the request it pointed at, and
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
	// Order is preserved (the cursor and per-pass iteration depend on it);
	// slices.Delete zeroes the vacated tail, so a finished request's buffers
	// are not retained by the backing array while the server idles.
	i := slices.Index(b.active, lr)
	b.active = slices.Delete(b.active, i, i+1)
	if i < b.rr {
		b.rr--
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
	lr.dec = lm.NewDecoder(req.Options())
	if lr.p.events != nil {
		lr.pd = lm.NewPieceDecoder(b.model.Decode)
	}
	return nil
}

// emit records tok as lr's newest token and delivers its stream event: the
// moment its pass completes, never blocking (the channel is pre-sized for
// the whole budget).
func (b *batch) emit(lr *liveReq, tok int) {
	lr.last[0] = tok
	b.stamp(lr.p)
	if lr.p.events != nil {
		lr.p.events <- lr.pd.Next(tok)
	}
}

func (s *Server) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// countPass records one forward pass of rows decode rows, a prompt chunk of
// chunk tokens (0 for none) and sampled sampled tokens — the decode rows,
// plus one when the chunk finished its prompt — without allocating (the
// closure form would capture the counts and escape), and without an extra
// lock in the sampling path. The pass may have published prompt blocks to
// bp's prefix cache, so the occupancy counters are refreshed under the same
// lock; the predictor's eviction count restarts when the loop rebuilds it,
// hence the delta.
func (b *batch) countPass(rows, chunk, sampled int) {
	blocks, evicted := b.bp.PrefixBlocks()
	b.mu.Lock()
	if rows > 0 {
		b.stats.Steps++
		b.stats.StepRows += uint64(rows)
		b.stats.BatchHist[histBucket(rows, len(b.stats.BatchHist))]++
		b.stats.MaxBatch = max(b.stats.MaxBatch, rows)
	}
	if chunk > 0 {
		b.stats.PromptTokens += uint64(chunk)
		b.stats.PrefillChunkHist[histBucket(chunk, len(b.stats.PrefillChunkHist))]++
	}
	b.stats.DecodeTokens += uint64(sampled)
	b.stats.PrefixBlocks = blocks
	b.stats.PrefixEvictions += evicted - b.evicted
	b.mu.Unlock()
	b.evicted = evicted
}

// batchPredictor is what the loop needs from a model: per-slot incremental
// state and the one forward method that advances it, Pass, with the
// contract of transformer.BatchedPredictor.Pass (implemented by it, or the
// scheduling tests' recording fake). The loop calls
// Pass at most once per iteration and never sets Chunk.All. A logits row
// stays valid until the next Pass: the loop samples every row before it
// calls the predictor again.
type batchPredictor interface {
	Add() int
	Attach(id int, ids []int) int
	PrefixBlocks() (resident int, evicted uint64)
	Drop(id int)
	Pass(chunks []transformer.Chunk) [][]float64
}
