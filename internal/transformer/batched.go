package transformer

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// BatchedPredictor performs autoregressive inference for many sequences at
// once over the same model, batching the dense work (Q/K/V/output
// projections, FFN, unembedding) of one decoding step across sequences into
// matrix multiplies while keeping an independent per-sequence KV cache.
// Sequences join (Add) and leave (Drop) the batch at any step, which is what
// the serving front end's continuous batching relies on.
//
// The step is cross-sequence GEMM work: every dense projection runs as one
// packedMat.matMat sweep with the batch's residual rows as the right-hand
// matrix, so each sixteen-row weight block is streamed from memory exactly
// once per step regardless of batch size (four rows per stream through the
// fused mathx.DotInterleaved16X4 kernel). Per-sequence attention reads the
// same incrementally maintained interleaved key packs the chunked prefill
// uses, sixteen keys per kernel call. Per-row arithmetic is
// Predictor.Append's operation for operation — same kernels, same
// accumulation orders — so the logits for a sequence are bitwise identical
// to running it alone through a Predictor.
//
// Like Predictor, the batched path avoids per-step churn: each sequence's
// KV cache is preallocated to the window (Add recycles the buffers of
// dropped sequences through a per-model pool), and all step intermediates
// (projections, residuals, logits) live in a scratch arena reused across
// Step calls. The arena grows to the largest live batch and is released
// again when the batch stays well below that high-water mark (see
// trimScratch), so a burst does not pin its peak footprint forever.
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

	// Step scratch, grown to the largest batch seen and reused; overCap
	// counts consecutive steps far below capacity (the shrink hysteresis).
	rows    []*batchSeq
	seen    map[int]bool
	overCap int
	x       *tensor.Tensor // embeddings / residual stream (batch×Dim)
	norm    *tensor.Tensor // layer-norm output (batch×Dim)
	q       *tensor.Tensor // all heads' queries, head-major (batch×Dim)
	k       *tensor.Tensor // all heads' keys (batch×Dim)
	v       *tensor.Tensor // all heads' values (batch×Dim)
	concat  *tensor.Tensor // concatenated head outputs (batch×Dim)
	attnOut *tensor.Tensor // attention / FFN output (batch×Dim)
	hidden  *tensor.Tensor // FFN hidden (batch×Hidden)
	logits  *tensor.Tensor // unembedding output (batch×Vocab)
	out     [][]float64    // per-sequence logit views handed to the caller
	scores  []float64      // per-head attention scores (Window)
	smax    []float64      // softmax scratch (Window)

	// Prefill logits buffer, created on first Prefill and reused (the
	// chunk scratch itself is pooled on the model).
	pfLogits []float64

	// Verification scratch for PrefillAll, created on first use and reused:
	// per-position logits and the row views handed to the caller.
	pfAll    *tensor.Tensor
	pfAllOut [][]float64
}

// batchSeq is one sequence's decoding state: positions processed so far and
// the per-layer, per-head KV cache, preallocated to the model window (rows
// [0, n) are valid), plus the interleaved key packs maintained alongside
// the key rows (see packKeyRow).
type batchSeq struct {
	n      int
	keys   [][]*tensor.Tensor
	vals   [][]*tensor.Tensor
	kpacks [][][]float64

	// Prefix-cache state, empty unless the sequence was attached.
	prompt  []int        // the attached prompt
	hashes  []uint64     // chain hash of each full block of prompt
	fed     int          // leading positions holding prompt's tokens, restored or written by Prefill
	offered int          // leading blocks restored from or offered to the cache
	tail    *prefixEntry // entry caching block offered-1; nil if that block is uncached
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
		scores: make([]float64, m.Cfg.Window),
		smax:   make([]float64, m.Cfg.Window),
	}
}

// Add registers a new empty sequence and returns its handle. Its KV buffers
// come from the model's pool of dropped sequences when one is waiting, and
// are reused as they are: rows and pack lanes at or beyond a sequence's
// length are overwritten before they are read (the argument Rewind rests on,
// see speculate.go), so what an earlier sequence left there is never seen.
func (bp *BatchedPredictor) Add() int {
	s, _ := bp.m.seqPool.Get().(*batchSeq)
	if s == nil {
		s = newBatchSeq(bp.m)
	}
	id := bp.next
	bp.next++
	bp.seqs[id] = s
	return id
}

func newBatchSeq(m *Model) *batchSeq {
	hd := m.Cfg.Dim / m.Cfg.Heads
	s := &batchSeq{
		keys:   make([][]*tensor.Tensor, len(m.Blocks)),
		vals:   make([][]*tensor.Tensor, len(m.Blocks)),
		kpacks: make([][][]float64, len(m.Blocks)),
	}
	for i, b := range m.Blocks {
		s.keys[i] = make([]*tensor.Tensor, b.Attn.NumHeads())
		s.vals[i] = make([]*tensor.Tensor, b.Attn.NumHeads())
		s.kpacks[i] = make([][]float64, b.Attn.NumHeads())
		for h := range s.keys[i] {
			s.keys[i][h] = tensor.New(m.Cfg.Window, hd)
			s.vals[i][h] = tensor.New(m.Cfg.Window, hd)
			s.kpacks[i][h] = make([]float64, m.Cfg.keyPackLen(hd))
		}
	}
	return s
}

// Drop releases a sequence; its KV buffers go back to the model's pool.
func (bp *BatchedPredictor) Drop(id int) {
	s := bp.seqs[id]
	if s == nil {
		return
	}
	delete(bp.seqs, id)
	s.n, s.fed, s.offered, s.tail = 0, 0, 0, nil
	s.prompt, s.hashes = s.prompt[:0], s.hashes[:0]
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
// batch size; the following ensure calls regrow at the live size.
func (bp *BatchedPredictor) trimScratch(batch int) {
	if cap(bp.rows) <= scratchMinRows || batch*scratchShrinkFactor > cap(bp.rows) {
		bp.overCap = 0
		return
	}
	if bp.overCap++; bp.overCap < scratchShrinkAfter {
		return
	}
	bp.overCap = 0
	bp.rows, bp.out = nil, nil
	bp.x, bp.norm, bp.q, bp.k, bp.v = nil, nil, nil, nil, nil
	bp.concat, bp.attnOut, bp.hidden, bp.logits = nil, nil, nil, nil
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
	m := bp.m
	if len(ids) != len(tokens) {
		panic("transformer: BatchedPredictor.Step ids/tokens length mismatch")
	}
	if len(ids) == 0 {
		return nil
	}
	batch := len(ids)
	bp.trimScratch(batch)
	if cap(bp.rows) < batch {
		bp.rows = make([]*batchSeq, batch)
		bp.out = make([][]float64, batch)
	}
	seqs := bp.rows[:batch]
	clear(bp.seen)
	for i, id := range ids {
		s := bp.seqs[id]
		if s == nil {
			panic(fmt.Sprintf("transformer: unknown batch sequence %d", id))
		}
		if bp.seen[id] {
			panic(fmt.Sprintf("transformer: sequence %d listed twice in one step", id))
		}
		bp.seen[id] = true
		if s.n >= m.Cfg.Window {
			panic("transformer: predictor window exhausted")
		}
		seqs[i] = s
	}
	// Embed the step's tokens: one row per sequence, at that sequence's
	// own position.
	x := tensor.Ensure(&bp.x, batch, m.Cfg.Dim)
	for i, s := range seqs {
		row := x.Row(i)
		copy(row, m.TokEmb.W.Value.Row(tokens[i]))
		switch m.Cfg.Pos {
		case PosLearned:
			for j, v := range m.PosTable.Value.Row(s.n) {
				row[j] += v
			}
		case PosSinusoidal:
			for j, v := range m.sinTable.Row(s.n) {
				row[j] += v
			}
		}
	}
	for li, b := range m.Blocks {
		bp.blockStepBatch(li, b, x, seqs)
	}
	layerNormRowsInto(x, x, m.FinalNorm)
	// Unembedding as one blocked sweep: the vocab projection — the largest
	// matrix in the model — streams once for the whole batch.
	logits := tensor.Ensure(&bp.logits, batch, m.Cfg.Vocab)
	bp.c.out.matMat(logits, x)
	out := bp.out[:batch]
	for i := 0; i < batch; i++ {
		row := logits.Row(i)
		for o, bv := range bp.c.outB {
			row[o] += bv
		}
		out[i] = row
	}
	for _, s := range seqs {
		s.n++
	}
	return out
}

// blockStepBatch advances one block over the residual stream in x, in place.
// It is the cross-sequence form of Predictor.blockStep: the five dense
// projections run as blocked matrix-matrix sweeps over all batch rows
// (weights streamed once per step), and per-sequence attention scores
// sixteen keys per kernel call against each sequence's interleaved key
// pack. Row for row the arithmetic matches blockStep's bitwise.
func (bp *BatchedPredictor) blockStepBatch(li int, b *Block, x *tensor.Tensor, seqs []*batchSeq) {
	m := bp.m
	cl := &bp.c.layers[li]
	hd := m.Cfg.Dim / m.Cfg.Heads
	batch := x.Shape[0]
	attnIn := x
	if !b.postNorm {
		attnIn = layerNormRowsInto(tensor.Ensure(&bp.norm, batch, m.Cfg.Dim), x, b.LN1)
	}
	// All heads' Q/K/V projections: three blocked sweeps shared by every
	// sequence row.
	q := tensor.Ensure(&bp.q, batch, m.Cfg.Dim)
	k := tensor.Ensure(&bp.k, batch, m.Cfg.Dim)
	v := tensor.Ensure(&bp.v, batch, m.Cfg.Dim)
	cl.wq.matMat(q, attnIn)
	cl.wk.matMat(k, attnIn)
	cl.wv.matMat(v, attnIn)
	concat := tensor.Ensure(&bp.concat, batch, m.Cfg.Dim)
	scale := 1 / math.Sqrt(float64(hd))
	stride := m.Cfg.SparseStride
	for hi := range b.Attn.heads {
		for i, s := range seqs {
			kc, vc := s.keys[li][hi], s.vals[li][hi]
			pos := s.n
			krow := k.Row(i)[hi*hd : (hi+1)*hd]
			copy(kc.Row(pos), krow)
			packKeyRow(s.kpacks[li][hi], krow, pos)
			copy(vc.Row(pos), v.Row(i)[hi*hd:(hi+1)*hd])
			qh := q.Row(i)[hi*hd : (hi+1)*hd]
			scores := bp.scores[:pos+1]
			if stride > 0 {
				for j := 0; j <= pos; j++ {
					if pos-j >= stride && j%stride != 0 {
						scores[j] = math.Inf(-1)
						continue
					}
					scores[j] = mathx.Dot(qh, kc.Row(j)) * scale
				}
			} else {
				packedAttnScores(bp.scores, qh, s.kpacks[li][hi], kc, pos, scale)
			}
			w := mathx.SoftmaxFastInto(scores, scores, bp.smax, 1)
			out := concat.Row(i)[hi*hd : (hi+1)*hd]
			weightedValueSum(out, vc, w, pos, hd)
		}
	}
	attnOut := tensor.Ensure(&bp.attnOut, batch, m.Cfg.Dim)
	cl.wo.matMat(attnOut, concat)
	addRows(x, attnOut, batch)
	if b.postNorm {
		layerNormRowsInto(x, x, b.LN1)
	}
	ffnIn := x
	if !b.postNorm {
		ffnIn = layerNormRowsInto(tensor.Ensure(&bp.norm, batch, m.Cfg.Dim), x, b.LN2)
	}
	h := tensor.Ensure(&bp.hidden, batch, m.Cfg.Hidden)
	cl.ffnIn.matMat(h, ffnIn)
	for i := 0; i < batch; i++ {
		row := h.Row(i)
		for j, bv := range cl.ffnInB {
			row[j] += bv
		}
	}
	// One vectorized activation sweep over the whole batch's hidden rows
	// (contiguous storage), elementwise bitwise-identical to actScalar.
	actInto(b.FFN.Act, h.Data[:batch*m.Cfg.Hidden])
	ffnOut := tensor.Ensure(&bp.attnOut, batch, m.Cfg.Dim)
	cl.ffnOut.matMat(ffnOut, h)
	for i := 0; i < batch; i++ {
		row := ffnOut.Row(i)
		for j, bv := range cl.ffnOutB {
			row[j] += bv
		}
	}
	addRows(x, ffnOut, batch)
	if b.postNorm {
		layerNormRowsInto(x, x, b.LN2)
	}
}

// layerNormRowsInto applies the inference-path layer norm row-by-row into
// dst (which may alias x), reusing the same per-vector kernel as Predictor
// so batched and unbatched decoding agree bitwise.
func layerNormRowsInto(dst, x *tensor.Tensor, ln *nn.LayerNorm) *tensor.Tensor {
	for i := 0; i < x.Shape[0]; i++ {
		layerNormInto(dst.Row(i), x.Row(i), ln)
	}
	return dst
}
