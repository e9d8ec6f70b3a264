package transformer

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// BatchedPredictor performs autoregressive inference for many sequences at
// once over the same model, batching the dense work (Q/K/V/output
// projections, FFN, unembedding) of one decoding step across sequences into
// matrix multiplies while keeping an independent per-sequence KV cache.
// Sequences join (Add) and leave (Drop) the batch at any step, which is what
// the serving front end's continuous batching relies on.
//
// A Pass is the row-pass kernel (rowPass, prefill.go) over every row of the
// chunks it is given — decode tokens and a prompt chunk:
// every dense projection runs as packedMat.matMat sweeps with the pass's
// residual rows as the right-hand matrix, so each sixteen-row weight block
// is streamed from memory once per four rows however many sequences ride
// them (the fused mathx.DotInterleaved16X4 kernel), and each row's attention
// reads its own sequence's interleaved key pack, sixteen keys per kernel
// call. A large pass fans out across GOMAXPROCS by four-row group, one
// hand-off per layer (each phase runs a layer's attention, output
// projection and FFN and the next layer's Q/K/V for the group), with
// bitwise the same result at any worker count; a batch of decode rows at
// the serving benchmark's shape stays serial.
// Step and Prefill are shapes of Pass, and Predictor.Append is the same
// kernel at 1 × 1, so the logits for a sequence are bitwise identical to
// running it alone through a Predictor.
//
// Like Predictor, the batched path avoids per-pass churn: each sequence's
// KV cache is preallocated to the window (Add recycles the buffers of
// dropped sequences through a per-model pool), and all pass intermediates
// (projections, residuals, logits) live in one scratch arena reused across
// passes. The arena grows to the widest pass and keeps that width, so its
// footprint is bounded by the caller's widest pass, not by traffic: in the
// serving loop at most MaxBatch decode rows plus one PrefillChunk-row prompt
// chunk, both declared in serve.Config (72 rows at its defaults, 626 KiB
// at the serving benchmark's shape). A prompt chunk that shares its pass
// with decode rows shares their arena.
//
// A sequence that is told its whole prompt up front (Attach) restores the
// longest prefix of it that the predictor's prefix cache holds instead of
// prefilling it, and publishes the blocks it does prefill; see
// prefixcache.go.
//
// A BatchedPredictor reads model weights and is not safe for concurrent use;
// the serving loop owns one and is the sole caller.
type BatchedPredictor struct {
	m      *Model
	c      *compiledModel
	seqs   map[int]*batchSeq
	next   int
	prefix *prefixCache

	// Pass arena (rows and intermediates) and result, grown to the widest
	// pass seen and reused.
	passScratch
	logits logitBuf
	seen   map[int]bool
	steps  []Chunk // Step's chunk list, reused
}

// batchSeq is one sequence's decoding state: its KV cache and what the
// prefix cache knows about its prompt.
type batchSeq struct {
	kvState

	// Prefix-cache state, empty unless the sequence was attached.
	prompt  []int        // the attached prompt
	hashes  []uint64     // chain hash of each full block of prompt
	fed     int          // leading positions holding prompt's tokens, restored or written by a pass
	offered int          // leading blocks restored from or offered to the cache
	tail    *prefixEntry // entry caching block offered-1; nil if that block is uncached
}

// reset empties the sequence for the pool: every field above except the KV
// buffers, which are reused as they are (see Add). A field added to batchSeq
// and not cleared here leaks from one request into the next.
func (s *batchSeq) reset() {
	s.n, s.fed, s.offered, s.tail = 0, 0, 0, nil
	s.prompt, s.hashes = s.prompt[:0], s.hashes[:0]
}

// NewBatchedPredictor compiles m's weights (the same packed layouts
// Predictor uses) and returns an empty batch over them. Like NewPredictor,
// the compile step snapshots the matrix weights at call time.
func (m *Model) NewBatchedPredictor() *BatchedPredictor {
	return &BatchedPredictor{
		m:      m,
		c:      m.compile(),
		seqs:   map[int]*batchSeq{},
		prefix: newPrefixCache(m.Cfg),
		seen:   map[int]bool{},
	}
}

// Add registers a new empty sequence and returns its handle. Its KV buffers
// come from the model's pool of dropped sequences when one is waiting, and
// are reused as they are: rows and pack lanes at or beyond a sequence's
// length are overwritten before they reach a result (the argument Rewind
// rests on, see prefill.go), so what an earlier sequence left there is never
// seen.
func (bp *BatchedPredictor) Add() int {
	s, _ := bp.m.seqPool.Get().(*batchSeq)
	if s == nil {
		s = &batchSeq{kvState: newKVState(bp.m.Cfg)}
	}
	id := bp.next
	bp.next++
	bp.seqs[id] = s
	return id
}

// Drop releases a sequence; its KV buffers go back to the model's pool.
func (bp *BatchedPredictor) Drop(id int) {
	s := bp.seqs[id]
	if s == nil {
		return
	}
	delete(bp.seqs, id)
	s.reset()
	bp.m.seqPool.Put(s)
}

// seq returns sequence id's state, panicking on an unknown handle.
func (bp *BatchedPredictor) seq(id int) *batchSeq {
	s := bp.seqs[id]
	if s == nil {
		panic(fmt.Sprintf("transformer: unknown batch sequence %d", id))
	}
	return s
}

// Len returns the number of positions processed for sequence id.
func (bp *BatchedPredictor) Len(id int) int { return bp.seq(id).n }

// Rewind discards the last n cached positions of sequence id, as if the
// tokens that produced them had never been fed, and panics when n is
// negative or exceeds the cached length. The next pass continues from the
// truncated position with logits bitwise identical to a sequence that never
// saw the discarded tokens; the benchmark's step timing relies on it to step
// at a fixed context length.
//
// Rewind is a plain length decrement — no KV rows or interleaved key-pack
// lanes are cleared — and is still bitwise-exact, because state beyond a
// sequence's length never reaches a result before it is overwritten. Every
// pass (rowPass, prefill.go) appending rows at positions [start, start+R) of a
// state first writes those positions' value rows and key-pack lanes,
// position-addressed (vc.Row(pos), lane pos&15 of block pos>>4), so
// re-ingesting position p lands exactly where the stale value sat. It then
// scores each row through the pack block holding its position pos. Lanes
// of that block past pos — a later row of the pass, or a stale lane at a
// position ≥ start+R — are computed but never read: the softmax and the
// value sum read the scores and value rows of [0, pos] only. Each sequence
// owns its values and key packs and the shared pass scratch holds no
// per-position state, so a rewind leaves every other sequence untouched.
// rewind_test.go checks this bit for bit against predictors rebuilt from
// scratch.
//
// Rewinding into an attached prompt also takes the discarded positions out
// of what the sequence may publish to the prefix cache, until a pass writes
// them from the prompt again.
func (bp *BatchedPredictor) Rewind(id, n int) {
	s := bp.seq(id)
	s.rewind(n)
	s.fed = min(s.fed, s.n)
}

// rowParallelWork is the per-call flop count above which a per-row sweep
// fans out across goroutines (matches tensor.MatMul's threshold scale).
const rowParallelWork = 64 * 64 * 64

// parallelRows reports whether a per-row sweep of the given total flop
// count should fan out. Call sites keep a plain inline loop for the serial
// case so the steady-state single-core path allocates nothing (a closure
// passed to rowParallel escapes to the heap).
func parallelRows(n, work int) bool {
	return runtime.GOMAXPROCS(0) >= 2 && n >= 2 && work >= rowParallelWork
}

// rowParallel runs f(i) for every i in [0, n) on up to min(GOMAXPROCS, n)
// goroutines and returns when every i is done; callers gate on
// parallelRows. Each i writes only its own outputs, so the result is
// identical to the serial loop at any worker count. The caller publishes
// the call, wakes parked helpers, and then claims items one at a time
// alongside the helpers that are awake, so no item waits for a helper to
// start: a helper that comes late finds fewer items left, and the caller
// runs the rest.
func rowParallel(n int, f func(i int)) {
	c := &fanCall{f: f, n: int64(n)}
	fanOpen(c, min(runtime.GOMAXPROCS(0), n)-1)
	c.work()
	fanClose(c)
	for c.done.Load() < c.n {
		runtime.Gosched()
	}
}

// fanIdle is how long a helper with no call to join stays awake before it
// parks. Waking a parked helper cost ≈ 33 µs on a 2-vCPU VM (a call over 8
// items of ≈ 34 µs took 164–174 µs against an ideal 135 µs; with the helper
// awake, 1.2 µs). Under the serving benchmark's prefill_heavy load every
// gap between the calls of one pass was under 5 µs, and 87 % of the gaps
// between passes were under 50 µs (EXPERIMENTS E42), so a helper joins
// those calls awake, and a pass after a longer gap pays one wake-up, not
// one per phase. Waiting yields the core, and an idle process's helpers
// are parked this long after their last call.
const fanIdle = 50 * time.Microsecond

// rowParallel's helpers live as long as the process, one fewer than the
// most goroutines a call has asked for, so a pass starts no goroutine. A
// helper joins any open call with an unclaimed item; with none, it waits awake
// for fanIdle and then parks, and only parked helpers are woken. Calls made
// at once — one per serve loop of a worker process — are all open to every
// helper, and each completes even if no helper joins it.
var fan struct {
	sync.Mutex
	calls   []*fanCall      // open calls
	parked  []chan struct{} // the wake channel of each parked helper
	helpers int             // helpers started
	open    atomic.Int32    // len(calls), for helpers to poll without the lock
}

// fanCall is one rowParallel call: f over [0, n), claimed in order from
// next; done counts the items that have run.
type fanCall struct {
	f          func(i int)
	n          int64
	next, done atomic.Int64
}

// work claims and runs c's items until none is left.
func (c *fanCall) work() {
	for i := c.next.Add(1) - 1; i < c.n; i = c.next.Add(1) - 1 {
		c.f(int(i))
		c.done.Add(1)
	}
}

// fanOpen publishes c to the helpers, starting helpers until there are
// want, and waking up to want parked ones.
func fanOpen(c *fanCall, want int) {
	fan.Lock()
	defer fan.Unlock()
	for ; fan.helpers < want; fan.helpers++ {
		go fanHelper()
	}
	fan.calls = append(fan.calls, c)
	fan.open.Add(1)
	for k := min(len(fan.parked), want); k > 0; k-- {
		last := len(fan.parked) - 1
		fan.parked[last] <- struct{}{} // one token per park into a buffer of one: never blocks
		fan.parked = fan.parked[:last]
	}
}

// fanClose withdraws c, whose items are all claimed.
func fanClose(c *fanCall) {
	fan.Lock()
	defer fan.Unlock()
	fan.calls = slices.DeleteFunc(fan.calls, func(o *fanCall) bool { return o == c })
	fan.open.Add(-1)
}

// fanJoinable returns an open call with an unclaimed item, or nil; the
// caller holds fan's lock.
func fanJoinable() *fanCall {
	for _, c := range fan.calls {
		if c.next.Load() < c.n {
			return c
		}
	}
	return nil
}

// fanHelper is one helper's life: join open calls, wait awake for fanIdle
// when there is none, then park until a call wakes it. It rechecks for an
// open call under the lock before it parks: a call published after its
// last look would otherwise find it not yet parked and not wake it.
func fanHelper() {
	wake := make(chan struct{}, 1)
	for {
		for idle := time.Now(); time.Since(idle) < fanIdle; runtime.Gosched() {
			if fan.open.Load() == 0 {
				continue
			}
			fan.Lock()
			c := fanJoinable()
			fan.Unlock()
			if c != nil {
				c.work()
				idle = time.Now()
			}
		}
		fan.Lock()
		if fanJoinable() != nil {
			fan.Unlock()
			continue
		}
		fan.parked = append(fan.parked, wake)
		fan.Unlock()
		<-wake
	}
}

// Chunk is one sequence's share of a Pass: Tokens to append to sequence ID
// (a decode token or a prompt chunk), with logits wanted after every one of
// them (All) or only after the last. The serving loop wants only the last;
// All is the per-position view the parity and rewind tests check rows by.
type Chunk struct {
	ID     int
	Tokens []int
	All    bool
}

// Pass appends every chunk to its sequence in one forward pass and returns
// the logits the chunks want, in chunk order; sequences not named stay
// untouched. A chunk beyond its sequence's window room is truncated keep-last
// to its last Window−Len(id) tokens. Pass panics on an unknown or repeated id
// and on a chunk with no token to ingest (empty, or its window exhausted).
// Every row is bitwise what feeding its sequence alone, one token at a time,
// would give, whatever else rides the pass; an attached sequence (Attach)
// offers the prompt blocks a chunk completes to the prefix cache. The rows
// are views into the predictor's scratch, valid until the next Pass, Step or
// Prefill call; clone a row to retain it.
func (bp *BatchedPredictor) Pass(chunks []Chunk) [][]float64 {
	if len(chunks) == 0 {
		return nil
	}
	bp.rows = bp.rows[:0]
	clear(bp.seen)
	for _, c := range chunks {
		s := bp.seq(c.ID)
		ids := truncTail(c.Tokens, bp.m.Cfg.Window-s.n)
		if bp.seen[c.ID] || len(ids) == 0 {
			panic(fmt.Sprintf("transformer: sequence %d repeated in a pass or with no token to ingest", c.ID))
		}
		bp.seen[c.ID] = true
		for i, tok := range ids {
			bp.rows = append(bp.rows, passRow{kv: &s.kvState, tok: tok, logits: c.All || i == len(ids)-1})
		}
	}
	bp.m.rowPass(bp.c, &bp.passScratch, &bp.logits)
	r := 0
	for _, c := range chunks {
		first := bp.rows[r] // rowPass tagged it with the chunk's start and end
		k := first.end - first.pos
		bp.publish(bp.seqs[c.ID], first.pos, c.Tokens[len(c.Tokens)-k:])
		r += k
	}
	return bp.logits.rows
}

// Step feeds one token per listed sequence and returns next-position logits
// aligned with ids: a Pass of one-token chunks. It panics on an unknown or
// duplicated id, and when a sequence's window is exhausted.
func (bp *BatchedPredictor) Step(ids []int, tokens []int) [][]float64 {
	if len(ids) != len(tokens) {
		panic("transformer: BatchedPredictor.Step ids/tokens length mismatch")
	}
	bp.steps = bp.steps[:0]
	for i, id := range ids {
		bp.steps = append(bp.steps, Chunk{ID: id, Tokens: tokens[i : i+1]})
	}
	return bp.Pass(bp.steps)
}

// Prefill feeds a chunk of tokens to one sequence and returns the logits
// after the last one: a Pass of one chunk, bitwise identical to
// Predictor.Extend. If ids exceeds the sequence's window room, only the last
// Window−Len(id) tokens are ingested (keep-last truncation); it returns nil
// when no tokens remain.
func (bp *BatchedPredictor) Prefill(id int, ids []int) []float64 {
	if len(truncTail(ids, bp.m.Cfg.Window-bp.Len(id))) == 0 {
		return nil
	}
	return bp.Pass([]Chunk{{ID: id, Tokens: ids}})[0]
}
