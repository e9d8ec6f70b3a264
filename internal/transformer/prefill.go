package transformer

import (
	"math"

	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file is the chunked prefill fast path: prompt ingestion as
// matrix-matrix work. Token-by-token Append streams every packed weight
// matrix from memory once per token and pays per-token kernel overhead for
// vectors of batch one; a chunk pass instead runs each dense projection as
// one blocked matrix-matrix sweep over all chunk positions (weights
// streamed once per chunk), computes attention scores against the KV cache
// in sixteen-key blocks through the same interleaved dot kernel the decode
// path uses, applies the vectorized softmax, and skips the final-norm +
// unembedding for every position except the last (prefill only needs the
// next-token logits once the prompt is in).
//
// Correctness contract: a chunk pass performs, position by position, the
// exact arithmetic Append performs — same kernels or bitwise-equal blocked
// forms of them, same accumulation orders, same layer-norm and activation
// scalars — so logits and KV-cache contents are bitwise identical to
// feeding the tokens one at a time. Causality makes the phase reordering
// sound: within a layer, position p's attention reads keys/values of
// positions ≤ p only, and those are fully determined by the layer's input
// rows, so computing the whole chunk's Q/K/V before any attention yields
// the same values as strict token order. The parity and property tests in
// prefill_test.go enforce this bit for bit, config by config.

// prefillScratch holds every intermediate of a chunk pass, grown to the
// largest chunk seen and reused — steady-state Extend/Prefill calls
// allocate nothing. Scratch lives in a per-model sync.Pool (taken per call,
// returned when the pass completes), so predictors created per request
// share warm buffers instead of each paying a first-call allocation.
type prefillScratch struct {
	x       *tensor.Tensor // residual stream (rows×Dim)
	norm    *tensor.Tensor // layer-norm output (rows×Dim)
	q       *tensor.Tensor // all heads' queries, head-major (rows×Dim)
	k       *tensor.Tensor // all heads' keys (rows×Dim)
	v       *tensor.Tensor // all heads' values (rows×Dim)
	concat  *tensor.Tensor // concatenated head outputs (rows×Dim)
	att     *tensor.Tensor // attention / FFN output (rows×Dim)
	hidden  *tensor.Tensor // FFN hidden (rows×Hidden)
	scores  []float64      // one position's attention scores (Window)
	scores2 []float64      // second score row for the paired-query kernel
	smax    []float64      // softmax scratch (Window)
	norm1   []float64      // final-norm output for the last position (Dim)
}

func (sc *prefillScratch) ensure(cfg Config, rows int) {
	tensor.Ensure(&sc.x, rows, cfg.Dim)
	tensor.Ensure(&sc.norm, rows, cfg.Dim)
	tensor.Ensure(&sc.q, rows, cfg.Dim)
	tensor.Ensure(&sc.k, rows, cfg.Dim)
	tensor.Ensure(&sc.v, rows, cfg.Dim)
	tensor.Ensure(&sc.concat, rows, cfg.Dim)
	tensor.Ensure(&sc.att, rows, cfg.Dim)
	tensor.Ensure(&sc.hidden, rows, cfg.Hidden)
	if len(sc.scores) < cfg.Window {
		sc.scores = make([]float64, cfg.Window)
		sc.scores2 = make([]float64, cfg.Window)
		sc.smax = make([]float64, cfg.Window)
	}
	if len(sc.norm1) < cfg.Dim {
		sc.norm1 = make([]float64, cfg.Dim)
	}
}

// truncTail returns the keep-last suffix of ids that fits the remaining
// window room: the canonical prompt-longer-than-window behavior shared by
// EncodePrompt (which truncates against Window−budget), Predictor.Extend,
// and BatchedPredictor.Prefill (which truncate against Window−Len).
func truncTail(ids []int, room int) []int {
	if room < 0 {
		room = 0
	}
	if len(ids) > room {
		ids = ids[len(ids)-room:]
	}
	return ids
}

// prefillRun advances the model over a whole chunk of token ids starting at
// cache position start, writing the per-layer keys/values (and their
// incremental interleaved key packs) for every chunk position and the last
// position's logits into logits (len Vocab). Chunk rows beyond the window
// must have been truncated by the caller.
func prefillRun(m *Model, c *compiledModel, keys, vals [][]*tensor.Tensor, kpacks [][][]float64, start int, ids []int, logits []float64) {
	sc, _ := m.pfPool.Get().(*prefillScratch)
	if sc == nil {
		sc = &prefillScratch{}
	}
	defer m.pfPool.Put(sc)
	rows := len(ids)
	prefillBody(m, c, sc, keys, vals, kpacks, start, ids)
	// Final norm + unembedding for the last position only: prefill needs
	// one set of next-token logits, not one per prompt position.
	layerNormInto(sc.norm1[:m.Cfg.Dim], sc.x.Row(rows-1), m.FinalNorm)
	c.out.matVec(logits, sc.norm1[:m.Cfg.Dim])
	for o, bv := range c.outB {
		logits[o] += bv
	}
}

// prefillRunAll is prefillRun with per-position outputs: every chunk row is
// final-normed and unembedded, filling logits (rows×Vocab) with the
// next-token logits after each position — the verification pass of
// speculative decoding, which must judge every drafted token, not just the
// last. Row r equals bitwise what Append would have returned for ids[r]: the
// final norm reuses Append's per-vector kernel and the unembedding sweep is
// the blocked matrix-matrix form proven bitwise-identical to matVec per row.
func prefillRunAll(m *Model, c *compiledModel, keys, vals [][]*tensor.Tensor, kpacks [][][]float64, start int, ids []int, logits *tensor.Tensor) {
	sc, _ := m.pfPool.Get().(*prefillScratch)
	if sc == nil {
		sc = &prefillScratch{}
	}
	defer m.pfPool.Put(sc)
	rows := len(ids)
	prefillBody(m, c, sc, keys, vals, kpacks, start, ids)
	// sc.norm is free after the last block, so the all-rows final norm can
	// land there.
	norm := layerNormRowsInto(sc.norm, sc.x, m.FinalNorm)
	c.out.matMat(logits, norm)
	for r := 0; r < rows; r++ {
		row := logits.Row(r)
		for o, bv := range c.outB {
			row[o] += bv
		}
	}
}

// prefillBody runs the shared part of a chunk pass — embedding and every
// transformer block — leaving the chunk's residual stream in sc.x.
func prefillBody(m *Model, c *compiledModel, sc *prefillScratch, keys, vals [][]*tensor.Tensor, kpacks [][][]float64, start int, ids []int) {
	rows := len(ids)
	sc.ensure(m.Cfg, rows)
	x := sc.x
	// Embed every chunk token at its own position.
	for r, id := range ids {
		row := x.Row(r)
		copy(row, m.TokEmb.W.Value.Row(id))
		switch m.Cfg.Pos {
		case PosLearned:
			for j, v := range m.PosTable.Value.Row(start + r) {
				row[j] += v
			}
		case PosSinusoidal:
			for j, v := range m.sinTable.Row(start + r) {
				row[j] += v
			}
		}
	}
	for li, b := range m.Blocks {
		prefillBlock(m, c, sc, li, b, keys[li], vals[li], kpacks[li], start, rows)
	}
}

// prefillBlock advances one transformer block over the chunk rows in sc.x,
// in place — the chunk form of Predictor.blockStep.
func prefillBlock(m *Model, c *compiledModel, sc *prefillScratch, li int, b *Block, keys, vals []*tensor.Tensor, kpacks [][]float64, start, rows int) {
	cl := &c.layers[li]
	hd := m.Cfg.Dim / m.Cfg.Heads
	x := sc.x
	attnIn := x
	if !b.postNorm {
		attnIn = layerNormRowsInto(sc.norm, x, b.LN1)
	}
	// Q/K/V for all chunk positions: three blocked matrix-matrix sweeps.
	cl.wq.matMat(sc.q, attnIn)
	cl.wk.matMat(sc.k, attnIn)
	cl.wv.matMat(sc.v, attnIn)
	scale := 1 / math.Sqrt(float64(hd))
	stride := m.Cfg.SparseStride
	for hi := 0; hi < m.Cfg.Heads; hi++ {
		kc, vc := keys[hi], vals[hi]
		kp := kpacks[hi]
		// Write the whole chunk's keys and values into the cache (and the
		// keys into the sequence's interleaved pack) first; causal
		// attention below reads only rows ≤ its own position.
		for r := 0; r < rows; r++ {
			krow := sc.k.Row(r)[hi*hd : (hi+1)*hd]
			copy(kc.Row(start+r), krow)
			packKeyRow(kp, krow, start+r)
			copy(vc.Row(start+r), sc.v.Row(r)[hi*hd:(hi+1)*hd])
		}
		if stride > 0 {
			for r := 0; r < rows; r++ {
				pos := start + r
				qh := sc.q.Row(r)[hi*hd : (hi+1)*hd]
				scores := sc.scores[:pos+1]
				for j := 0; j <= pos; j++ {
					if pos-j >= stride && j%stride != 0 {
						scores[j] = math.Inf(-1)
						continue
					}
					scores[j] = mathx.Dot(qh, kc.Row(j)) * scale
				}
				w := mathx.SoftmaxFastInto(scores, scores, sc.smax, 1)
				weightedValueSum(sc.concat.Row(r)[hi*hd:(hi+1)*hd], vc, w, pos, hd)
			}
			continue
		}
		// Dense attention over the sequence's incrementally maintained key
		// pack: score rows are computed sixteen keys per kernel call
		// against interleaved blocks that stay cache-resident across the
		// whole chunk; neighboring query rows share each block through the
		// fused two-vector kernel. A query whose causal frontier ends
		// inside a fully packed block lets the kernel compute the whole
		// block — the out-of-frontier lanes land beyond scores[:pos+1] and
		// are never read.
		nFull := (start + rows) / 16
		blocksFor := func(pos int) int {
			nb := (pos + 1 + 15) / 16
			if nb > nFull {
				nb = nFull
			}
			return nb
		}
		finishRow := func(r int, scores []float64, nb int) {
			pos := start + r
			qh := sc.q.Row(r)[hi*hd : (hi+1)*hd]
			for j := nb * 16; j <= pos; j++ {
				scores[j] = mathx.Dot(kc.Row(j), qh)
			}
			s := scores[:pos+1]
			for j := range s {
				s[j] *= scale
			}
			w := mathx.SoftmaxFastInto(s, s, sc.smax, 1)
			weightedValueSum(sc.concat.Row(r)[hi*hd:(hi+1)*hd], vc, w, pos, hd)
		}
		r := 0
		for ; r+2 <= rows; r += 2 {
			qh0 := sc.q.Row(r)[hi*hd : (hi+1)*hd]
			qh1 := sc.q.Row(r + 1)[hi*hd : (hi+1)*hd]
			nb0, nb1 := blocksFor(start+r), blocksFor(start+r+1)
			s0, s1 := sc.scores, sc.scores2
			for bk := 0; bk < nb0; bk++ {
				mathx.DotInterleaved16X2(
					(*[16]float64)(s0[bk*16:bk*16+16]),
					(*[16]float64)(s1[bk*16:bk*16+16]),
					kp[bk*16*hd:(bk+1)*16*hd], qh0, qh1)
			}
			for bk := nb0; bk < nb1; bk++ {
				mathx.DotInterleaved16((*[16]float64)(s1[bk*16:bk*16+16]),
					kp[bk*16*hd:(bk+1)*16*hd], qh1)
			}
			finishRow(r, s0, nb0)
			finishRow(r+1, s1, nb1)
		}
		for ; r < rows; r++ {
			nb := blocksFor(start + r)
			qh := sc.q.Row(r)[hi*hd : (hi+1)*hd]
			for bk := 0; bk < nb; bk++ {
				mathx.DotInterleaved16((*[16]float64)(sc.scores[bk*16:bk*16+16]),
					kp[bk*16*hd:(bk+1)*16*hd], qh)
			}
			finishRow(r, sc.scores, nb)
		}
	}
	cl.wo.matMat(sc.att, sc.concat)
	addRows(x, sc.att, rows)
	if b.postNorm {
		layerNormRowsInto(x, x, b.LN1)
	}
	ffnIn := x
	if !b.postNorm {
		ffnIn = layerNormRowsInto(sc.norm, x, b.LN2)
	}
	cl.ffnIn.matMat(sc.hidden, ffnIn)
	for r := 0; r < rows; r++ {
		row := sc.hidden.Row(r)
		for j, bv := range cl.ffnInB {
			row[j] += bv
		}
	}
	// One vectorized activation sweep over the whole chunk's hidden rows
	// (contiguous storage), elementwise bitwise-identical to actScalar.
	actInto(b.FFN.Act, sc.hidden.Data[:rows*m.Cfg.Hidden])
	cl.ffnOut.matMat(sc.att, sc.hidden)
	for r := 0; r < rows; r++ {
		row := sc.att.Row(r)
		for j, bv := range cl.ffnOutB {
			row[j] += bv
		}
	}
	addRows(x, sc.att, rows)
	if b.postNorm {
		layerNormRowsInto(x, x, b.LN2)
	}
}

// addRows accumulates the first rows rows of src into dst (both tensors are
// chunk scratch shaped rows×cols, so the accumulation runs over the flat
// contiguous storage — per element it is the same += the per-token path
// performs).
func addRows(dst, src *tensor.Tensor, rows int) {
	n := rows * dst.Shape[1]
	d, s := dst.Data[:n], src.Data[:n]
	for i, v := range s {
		d[i] += v
	}
}

// actInto applies the activation elementwise in place, using the vectorized
// kernels where they exist; every element equals actScalar's result bitwise.
func actInto(a nn.Activation, xs []float64) {
	switch a {
	case nn.ReLU:
		for i, v := range xs {
			if !(v > 0) {
				xs[i] = 0
			}
		}
	case nn.Tanh:
		mathx.TanhInto(xs, xs)
	case nn.GELU:
		mathx.GELUInto(xs, xs)
	default:
		panic("transformer: unknown activation")
	}
}

// Extend feeds a whole chunk of tokens and returns the logits for the
// position after the last one — bitwise identical to calling Append on each
// id in order and keeping the final result, at a fraction of the cost (the
// dense work runs as matrix-matrix sweeps and only the last position is
// unembedded). If ids exceeds the remaining window room, only the last
// Window−Len tokens are ingested (keep-last truncation, matching the
// prompt-window policy of EncodePrompt); earlier ids are dropped. It
// returns nil when no tokens remain to ingest.
//
// Like Append, the returned slice is the predictor's reusable scratch,
// valid until the next Append or Extend call. Steady-state Extend performs
// no heap allocations once its chunk scratch has grown to the caller's
// chunk size.
func (p *Predictor) Extend(ids []int) []float64 {
	ids = truncTail(ids, p.m.Cfg.Window-p.n)
	if len(ids) == 0 {
		return nil
	}
	prefillRun(p.m, p.c, p.keys, p.vals, p.kpacks, p.n, ids, p.logits)
	p.n += len(ids)
	return p.logits
}

// Prefill feeds a whole chunk of tokens to one batch sequence and returns
// the logits for the position after the last one — bitwise identical to
// stepping the sequence alone through Step once per token (and therefore to
// Predictor.Append), using the same chunked matrix-matrix pass as
// Predictor.Extend. Sequences not named are untouched, which is what lets
// the serving loop interleave bounded prefill chunks with decode steps. If
// ids exceeds the sequence's remaining window room, only the last
// Window−Len(id) tokens are ingested (keep-last truncation); it returns nil
// when no tokens remain. On an attached sequence (see Attach) the prompt
// blocks the pass completes are offered to the prefix cache.
//
// The returned slice is shared scratch, valid until the next Step or
// Prefill call.
func (bp *BatchedPredictor) Prefill(id int, ids []int) []float64 {
	s := bp.seq(id)
	ids = truncTail(ids, bp.m.Cfg.Window-s.n)
	if len(ids) == 0 {
		return nil
	}
	if len(bp.pfLogits) < bp.m.Cfg.Vocab {
		bp.pfLogits = make([]float64, bp.m.Cfg.Vocab)
	}
	start := s.n
	prefillRun(bp.m, bp.c, s.keys, s.vals, s.kpacks, start, ids, bp.pfLogits)
	s.n += len(ids)
	bp.publish(s, start, ids)
	return bp.pfLogits
}
