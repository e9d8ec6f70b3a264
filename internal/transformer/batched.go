package transformer

import (
	"fmt"
	"runtime"
	"sync"
)

// BatchedPredictor performs autoregressive inference for many sequences at
// once over the same model, batching the dense work (Q/K/V/output
// projections, FFN, unembedding) of one decoding step across sequences into
// matrix multiplies while keeping an independent per-sequence KV cache.
// Sequences join (Add) and leave (Drop) the batch at any step, which is what
// the serving front end's continuous batching relies on.
//
// A Step is the row-pass kernel (rowPass, prefill.go) at B states × 1 row:
// every dense projection runs as one packedMat.matMat sweep with the batch's
// residual rows as the right-hand matrix, so each sixteen-row weight block
// is streamed from memory exactly once per step regardless of batch size
// (four rows per stream through the fused mathx.DotInterleaved16X4 kernel),
// and each row's attention reads its own sequence's interleaved key pack,
// sixteen keys per kernel call. Predictor.Append is the same kernel at
// 1 × 1, so the logits for a sequence are bitwise identical to running it
// alone through a Predictor.
//
// Like Predictor, the batched path avoids per-step churn: each sequence's
// KV cache is preallocated to the window (Add recycles the buffers of
// dropped sequences through a per-model pool), and all step intermediates
// (projections, residuals, logits) live in a scratch arena reused across
// Step calls. The arena grows to the largest live batch and is released
// again when the batch stays well below that high-water mark (see
// trimScratch), so a burst does not pin its peak footprint forever. Chunk
// passes (Prefill, PrefillAll) run in scratch pooled on the model instead,
// which keeps a prompt's chunk width out of the step arena's hysteresis.
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

	// Step arena (rows and intermediates) and result, grown to the largest
	// batch seen and reused; overCap counts consecutive steps far below
	// capacity (the shrink hysteresis).
	passScratch
	step    logitBuf
	seen    map[int]bool
	overCap int

	pf    logitBuf // Prefill result
	pfAll logitBuf // PrefillAll result, one row per chunk position
}

// batchSeq is one sequence's decoding state: its KV cache and what the
// prefix cache knows about its prompt.
type batchSeq struct {
	kvState

	// Prefix-cache state, empty unless the sequence was attached.
	prompt  []int        // the attached prompt
	hashes  []uint64     // chain hash of each full block of prompt
	fed     int          // leading positions holding prompt's tokens, restored or written by Prefill
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
// length are overwritten before they are read (the argument Rewind rests on,
// see prefill.go), so what an earlier sequence left there is never seen.
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

// Size returns the number of registered sequences.
func (bp *BatchedPredictor) Size() int { return len(bp.seqs) }

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

// Scratch-retention policy: the step arena tracks the largest batch seen,
// which after a traffic burst can dwarf the steady batch. When the live
// batch has stayed at or below capacity/scratchShrinkFactor for
// scratchShrinkAfter consecutive steps, the arena is released and regrown
// at the live size; tiny arenas (≤ scratchMinRows rows) are never worth
// reclaiming. The hysteresis keeps an oscillating load from thrashing
// between shrink and regrowth.
const (
	scratchShrinkFactor = 4
	scratchShrinkAfter  = 64
	scratchMinRows      = 8
)

// trimScratch applies the retention policy above before a step of the given
// batch size; the step then regrows it at the live size.
func (bp *BatchedPredictor) trimScratch(batch int) {
	if cap(bp.rows) <= scratchMinRows || batch*scratchShrinkFactor > cap(bp.rows) {
		bp.overCap = 0
		return
	}
	if bp.overCap++; bp.overCap < scratchShrinkAfter {
		return
	}
	bp.overCap = 0
	bp.passScratch, bp.step = passScratch{}, logitBuf{}
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

// rowParallel runs f(i) for every row i in [0, n) across GOMAXPROCS
// goroutines; callers gate on parallelRows. Each row writes only its own
// outputs, so the result is identical to the serial loop at any worker
// count.
func rowParallel(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				f(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// Step feeds one token per listed sequence and returns next-position logits
// aligned with ids. Sequences not listed stay untouched, which lets callers
// prefill a newly admitted request while others are mid-decode. It panics on
// an unknown or duplicated id, and when a sequence's window is exhausted.
//
// The returned rows are views into the predictor's step scratch: they are
// valid until the next Step call (the serving loop and every decoding
// driver consume them immediately). Clone a row to retain it.
func (bp *BatchedPredictor) Step(ids []int, tokens []int) [][]float64 {
	if len(ids) != len(tokens) {
		panic("transformer: BatchedPredictor.Step ids/tokens length mismatch")
	}
	if len(ids) == 0 {
		return nil
	}
	bp.trimScratch(len(ids))
	rows := bp.begin(len(ids))
	clear(bp.seen)
	for i, id := range ids {
		s := bp.seq(id)
		if bp.seen[id] {
			panic(fmt.Sprintf("transformer: sequence %d listed twice in one step", id))
		}
		bp.seen[id] = true
		if s.n >= bp.m.Cfg.Window {
			panic("transformer: predictor window exhausted")
		}
		rows[i].kv = &s.kvState
	}
	bp.m.rowPass(bp.c, &bp.passScratch, tokens, bp.step.ensure(len(ids), bp.m.Cfg.Vocab))
	return bp.step.rows
}
