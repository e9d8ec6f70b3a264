package transformer

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file is the transformer block's one inference form: rowPass advances
// the model over R residual rows, each tagged with the KV state it appends
// to and whether its logits are wanted. Every entry point is a shape of it —
// Append is 1 state × 1 row, Extend is 1 state × R rows with last-row
// logits, and BatchedPredictor.Pass any mix of those over many states in one
// pass (a serving iteration's decode rows and its prompt chunk). Each dense
// projection is one blocked matrix-matrix sweep over all rows
// (packedMat.matMat: every weight block streamed once per pass), attention
// scores run sixteen keys per interleaved kernel call against each state's
// key pack, and only the rows whose logits are wanted are final-normed and
// unembedded. Both halves of a block use the cores: matMat fans out by row
// group or weight block, and attention by head once the pass's attention
// work reaches the same threshold (rowParallelWork); a one-row pass runs
// serially. Predictor's chunk passes take pooled scratch
// (Extend); BatchedPredictor's share its one arena (see batched.go).
//
// Correctness contract: a pass performs, row by row, the arithmetic of
// feeding that state's tokens one at a time — same kernels or bitwise-equal
// blocked forms of them (X4 = X2 = DotInterleaved16 = Dot per lane), same
// accumulation orders, same layer-norm and activation scalars — so logits
// and KV contents do not depend on how tokens were grouped into passes.
// Causality makes the phase order sound: within a layer, the row at
// position p reads keys/values of positions ≤ p only, and those are fully
// determined by the layer's input rows, so a pass writes the K/V rows and
// pack lanes of all its rows — positions [start, start+R) of each state —
// before scoring any of them. A row reads whole pack blocks only below
// nFull = (its state's length after the pass)/16, blocks in which every
// lane is a position the state holds; the tail comes from the position-major
// key rows up to the row's own position. Nothing past a state's length is
// ever read, which is also why Rewind (batched.go) and buffer recycling
// (BatchedPredictor.Add) need clear nothing. legacy_test.go anchors every
// entry point bitwise to the pre-compile reference; prefill_test.go,
// batched_test.go and rewind_test.go fuzz the shapes against each other.

// kvState is one sequence's KV cache: per layer and head, position-major
// key and value rows preallocated to the window, of which rows [0, n) are
// valid, and the same keys in the sixteen-row interleaved layout (see
// packKeyRow), maintained as each key row is written so scoring never
// re-packs the prefix.
type kvState struct {
	keys   [][]*tensor.Tensor
	vals   [][]*tensor.Tensor
	kpacks [][][]float64
	n      int
}

func newKVState(cfg Config) kvState {
	hd := cfg.Dim / cfg.Heads
	kv := kvState{
		keys:   make([][]*tensor.Tensor, cfg.Layers),
		vals:   make([][]*tensor.Tensor, cfg.Layers),
		kpacks: make([][][]float64, cfg.Layers),
	}
	for li := range kv.keys {
		kv.keys[li] = make([]*tensor.Tensor, cfg.Heads)
		kv.vals[li] = make([]*tensor.Tensor, cfg.Heads)
		kv.kpacks[li] = make([][]float64, cfg.Heads)
		for hi := range kv.keys[li] {
			kv.keys[li][hi] = tensor.New(cfg.Window, hd)
			kv.vals[li][hi] = tensor.New(cfg.Window, hd)
			kv.kpacks[li][hi] = make([]float64, cfg.keyPackLen(hd))
		}
	}
	return kv
}

// rewind discards the last n positions; see BatchedPredictor.Rewind.
func (kv *kvState) rewind(n int) {
	if n < 0 || n > kv.n {
		panic(fmt.Sprintf("transformer: Rewind(%d) outside cached length %d", n, kv.n))
	}
	kv.n -= n
}

// passRow tags one residual row of a pass with the KV state it appends to.
// The caller names kv, tok and logits; rowPass derives the rest.
type passRow struct {
	kv     *kvState
	tok    int  // the token embedded at this row
	logits bool // final-norm and unembed this row
	pos    int  // the row's position in kv
	end    int  // kv's length once the pass completes
}

// passScratch holds every intermediate of a row pass, grown to the largest
// pass seen and reused, so steady-state passes allocate nothing.
type passScratch struct {
	rows    []passRow      // filled by the caller: one state's rows adjacent, in position order, within its window
	x       *tensor.Tensor // residual stream (rows×Dim)
	norm    *tensor.Tensor // layer-norm output (rows×Dim)
	q       *tensor.Tensor // all heads' queries, head-major (rows×Dim)
	k       *tensor.Tensor // all heads' keys (rows×Dim)
	v       *tensor.Tensor // all heads' values (rows×Dim)
	concat  *tensor.Tensor // concatenated head outputs (rows×Dim)
	att     *tensor.Tensor // attention / FFN output (rows×Dim)
	hidden  *tensor.Tensor // FFN hidden (rows×Hidden)
	attn    int            // the pass's attention work: Σ over rows of 2·(pos+1)·Dim
	scores  []float64      // one row's attention scores, one Window-long slot per head
	scores2 []float64      // second score row for the paired-query kernel, per head
	smax    []float64      // softmax scratch, per head
}

func (sc *passScratch) ensure(cfg Config, rows int) {
	tensor.Ensure(&sc.x, rows, cfg.Dim)
	tensor.Ensure(&sc.norm, rows, cfg.Dim)
	tensor.Ensure(&sc.q, rows, cfg.Dim)
	tensor.Ensure(&sc.k, rows, cfg.Dim)
	tensor.Ensure(&sc.v, rows, cfg.Dim)
	tensor.Ensure(&sc.concat, rows, cfg.Dim)
	tensor.Ensure(&sc.att, rows, cfg.Dim)
	tensor.Ensure(&sc.hidden, rows, cfg.Hidden)
	if n := cfg.Heads * cfg.Window; len(sc.scores) < n {
		sc.scores = make([]float64, n)
		sc.scores2 = make([]float64, n)
		sc.smax = make([]float64, n)
	}
}

// logitBuf is a caller-owned logits matrix and the row views handed out of
// it. Results live here rather than in the pass scratch because Predictor's
// chunk passes run in pooled scratch that the next predictor may already be
// using.
type logitBuf struct {
	t    *tensor.Tensor
	rows [][]float64
}

// ensure sizes the buffer to n rows and returns the matrix for a pass to
// fill; rows then views it.
func (l *logitBuf) ensure(n, vocab int) *tensor.Tensor {
	t := tensor.Ensure(&l.t, n, vocab)
	if cap(l.rows) < n {
		l.rows = make([][]float64, n)
	}
	l.rows = l.rows[:n]
	for r := range l.rows {
		l.rows[r] = t.Row(r)
	}
	return t
}

// rowPass runs the pass whose rows the caller put in sc.rows: it embeds each
// row's token at its position, advances every block over the rows (writing
// each row's keys and values into its state), final-norms and unembeds the
// rows that want logits into out, in row order, and extends each state by
// its rows.
func (m *Model) rowPass(c *compiledModel, sc *passScratch, out *logitBuf) {
	cfg := m.Cfg
	rows := sc.rows
	n := len(rows)
	sc.attn = 0
	for r := 0; r < n; {
		kv, e := rows[r].kv, r+1
		for e < n && rows[e].kv == kv {
			e++
		}
		for i := r; i < e; i++ {
			rows[i].pos, rows[i].end = kv.n+i-r, kv.n+e-r
			sc.attn += 2 * (rows[i].pos + 1) * cfg.Dim
		}
		r = e
	}
	sc.ensure(cfg, n)
	x := sc.x
	for r := range rows {
		row := x.Row(r)
		copy(row, m.TokEmb.W.Value.Row(rows[r].tok))
		switch cfg.Pos {
		case PosLearned:
			for j, v := range m.PosTable.Value.Row(rows[r].pos) {
				row[j] += v
			}
		case PosSinusoidal:
			for j, v := range m.sinTable.Row(rows[r].pos) {
				row[j] += v
			}
		}
	}
	for li, b := range m.Blocks {
		blockRows(cfg, &c.layers[li], sc, li, b)
	}
	// sc.norm is free after the last block, so the final norm lands there.
	// The unembedding — the largest matrix in the model — streams once for
	// however many rows want logits.
	want := 0
	for r := range rows {
		if rows[r].logits {
			layerNormInto(sc.norm.Row(want), x.Row(r), m.FinalNorm)
			want++
		}
	}
	norm := tensor.Ensure(&sc.norm, want, cfg.Dim)
	logits := out.ensure(want, cfg.Vocab)
	c.out.matMat(logits, norm)
	addBias(logits, c.outB)
	for r := range rows {
		rows[r].kv.n = rows[r].end
	}
}

// blockRows advances one transformer block over the pass's residual rows in
// sc.x, in place: LN → Q/K/V → causal attention (Eq. 13) → output
// projection → FFN, with the residual adds.
func blockRows(cfg Config, cl *compiledLayer, sc *passScratch, li int, b *Block) {
	x := sc.x
	attnIn := x
	if !b.postNorm {
		attnIn = layerNormRowsInto(sc.norm, x, b.LN1)
	}
	// Q/K/V for every row and head: three blocked matrix-matrix sweeps.
	cl.wq.matMat(sc.q, attnIn)
	cl.wk.matMat(sc.k, attnIn)
	cl.wv.matMat(sc.v, attnIn)
	// Heads share no outputs, so a pass with enough attention work runs them
	// across workers; a one-row pass (Append) stays serial, allocation-free.
	if len(sc.rows) > 1 && parallelRows(cfg.Heads, sc.attn) {
		rowParallel(cfg.Heads, func(hi int) { sc.attendHead(cfg, li, hi) })
	} else {
		for hi := 0; hi < cfg.Heads; hi++ {
			sc.attendHead(cfg, li, hi)
		}
	}
	cl.wo.matMat(sc.att, sc.concat)
	addRows(x, sc.att)
	if b.postNorm {
		layerNormRowsInto(x, x, b.LN1)
	}
	ffnIn := x
	if !b.postNorm {
		ffnIn = layerNormRowsInto(sc.norm, x, b.LN2)
	}
	cl.ffnIn.matMat(sc.hidden, ffnIn)
	addBias(sc.hidden, cl.ffnInB)
	actInto(b.FFN.Act, sc.hidden.Data)
	cl.ffnOut.matMat(sc.att, sc.hidden)
	addBias(sc.att, cl.ffnOutB)
	addRows(x, sc.att)
	if b.postNorm {
		layerNormRowsInto(x, x, b.LN2)
	}
}

// attendHead runs head hi of layer li for every row of the pass: it writes
// the rows' keys (cache row and pack lane) and values into their states,
// then per row scores the state's positions [0, pos], takes the softmax and
// leaves the weighted value sum in sc.concat. Two adjacent rows of one state
// share each key block through the fused two-query kernel; a row whose
// neighbour belongs to another state is scored alone. Loop order over rows
// is free: every kernel's per-lane arithmetic is the same. Heads may run
// concurrently (blockRows): head hi writes only its own K/V rows and pack
// lanes, the concat columns [hi·hd, (hi+1)·hd) and score slot hi, and reads
// nothing another head writes.
func (sc *passScratch) attendHead(cfg Config, li, hi int) {
	rows := sc.rows
	hd, stride := cfg.Dim/cfg.Heads, cfg.SparseStride
	lo, up := hi*hd, (hi+1)*hd
	w := hi * cfg.Window
	scores, scores2, smax := sc.scores[w:w+cfg.Window], sc.scores2[w:w+cfg.Window], sc.smax[w:w+cfg.Window]
	for r, row := range rows {
		krow := sc.k.Row(r)[lo:up]
		copy(row.kv.keys[li][hi].Row(row.pos), krow)
		packKeyRow(row.kv.kpacks[li][hi], krow, row.pos)
		copy(row.kv.vals[li][hi].Row(row.pos), sc.v.Row(r)[lo:up])
	}
	scale := 1 / math.Sqrt(float64(hd))
	for r := 0; r < len(rows); r++ {
		row := rows[r]
		kc, vc, kp := row.kv.keys[li][hi], row.kv.vals[li][hi], row.kv.kpacks[li][hi]
		q0 := sc.q.Row(r)[lo:up]
		if stride > 0 {
			maskedAttnScores(scores, q0, kc, row.pos, stride)
			attnOut(sc.concat.Row(r)[lo:up], scores, smax, vc, row.pos, scale)
			continue
		}
		nFull := row.end / 16
		pair := r+1 < len(rows) && rows[r+1].kv == row.kv
		var q1 []float64
		shared := 0 // leading blocks the pair scores together
		if pair {
			q1 = sc.q.Row(r + 1)[lo:up]
			shared = min((row.pos+16)/16, nFull)
			for bk := 0; bk < shared; bk++ {
				mathx.DotInterleaved16X2(
					(*[16]float64)(scores[bk*16:bk*16+16]),
					(*[16]float64)(scores2[bk*16:bk*16+16]),
					kp[bk*16*hd:(bk+1)*16*hd], q0, q1)
			}
		}
		packedAttnScores(scores, q0, kp, kc, shared, row.pos, nFull)
		attnOut(sc.concat.Row(r)[lo:up], scores, smax, vc, row.pos, scale)
		if pair {
			r++
			packedAttnScores(scores2, q1, kp, kc, shared, row.pos+1, nFull)
			attnOut(sc.concat.Row(r)[lo:up], scores2, smax, vc, row.pos+1, scale)
		}
	}
}

// attnOut turns one row's raw scores over positions [0, pos] into its
// attention output: scale by 1/√q, softmax (the Boltzmann weights of
// Eq. 14), weighted value sum.
func attnOut(out, scores, smax []float64, vc *tensor.Tensor, pos int, scale float64) {
	s := scores[:pos+1]
	for j := range s {
		s[j] *= scale
	}
	w := mathx.SoftmaxFastInto(s, s, smax, 1)
	weightedValueSum(out, vc, w, pos)
}

// layerNormRowsInto applies layerNormInto row by row into dst (which may
// alias x).
func layerNormRowsInto(dst, x *tensor.Tensor, ln *nn.LayerNorm) *tensor.Tensor {
	for i := 0; i < x.Shape[0]; i++ {
		layerNormInto(dst.Row(i), x.Row(i), ln)
	}
	return dst
}

// addRows accumulates src into dst elementwise (two pass-scratch matrices of
// one shape, so the sum runs over the flat contiguous storage).
func addRows(dst, src *tensor.Tensor) {
	d := dst.Data[:len(src.Data)]
	for i, v := range src.Data {
		d[i] += v
	}
}

// addBias adds b to every row of t.
func addBias(t *tensor.Tensor, b []float64) {
	for r := 0; r < t.Shape[0]; r++ {
		row := t.Row(r)
		for j, bv := range b {
			row[j] += bv
		}
	}
}

// actInto applies the activation elementwise in place, using the vectorized
// kernels where they exist; every element equals the scalar activation's
// result bitwise.
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

// truncTail returns the keep-last suffix of ids that fits the remaining
// window room: the canonical prompt-longer-than-window behavior shared by
// EncodePrompt (which truncates against Window−budget) and every chunk of a
// pass (which truncates against Window−Len).
func truncTail(ids []int, room int) []int {
	if room < 0 {
		room = 0
	}
	if len(ids) > room {
		ids = ids[len(ids)-room:]
	}
	return ids
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
// no heap allocations once the pooled scratch has grown to the caller's
// chunk size.
func (p *Predictor) Extend(ids []int) []float64 {
	ids = truncTail(ids, p.m.Cfg.Window-p.n)
	if len(ids) == 0 {
		return nil
	}
	// The pass runs in scratch pooled on the model (taken per call, returned
	// when the pass completes), so predictors created per request share warm
	// buffers instead of each paying a first-call allocation.
	sc, _ := p.m.pfPool.Get().(*passScratch)
	if sc == nil {
		sc = &passScratch{}
	}
	defer p.m.pfPool.Put(sc)
	sc.rows = sc.rows[:0]
	for r, id := range ids {
		sc.rows = append(sc.rows, passRow{kv: &p.kvState, tok: id, logits: r == len(ids)-1})
	}
	p.m.rowPass(p.c, sc, &p.logits)
	return p.logits.rows[0]
}
