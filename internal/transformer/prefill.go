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
// projection is a blocked matrix-matrix sweep over the rows
// (packedMat.matMat: every weight block streamed once per four-row group),
// attention scores run sixteen keys per interleaved kernel call against each
// state's key pack, and up to four rows of one state (a prompt chunk's) share
// each key block and, with sixteen-wide heads, each value sweep
// (attendRows); only the rows whose logits are wanted are final-normed and
// unembedded. The blocks run as Layers+1 phases with one
// barrier per layer (layerRows): each phase finishes one layer's attention,
// output projection and FFN and starts the next layer's Q/K/V, because
// attention is the only step that mixes positions. A large pass runs every
// phase by four-row group across workers once the pass's widest product,
// n·Hidden·Dim, or its attention work reaches rowParallelWork; a
// decode-sized pass runs serially. A pass pays its hand-offs per layer
// however many rows it carries, which is why the serving loop's prompt
// chunk is 64 rows (serve.Config.PrefillChunk, EXPERIMENTS E43).
// Predictor's chunk passes take pooled scratch (Extend); BatchedPredictor's
// share its one arena (see batched.go).
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
// in one phase and scores them in the next. A row scores whole pack blocks
// through the one holding its own position; lanes past that position — keys
// a later row of the pass wrote, or stale ones past the state's length — are
// computed but never read, because the softmax reads only the scores of
// positions [0, pos]. So nothing past a state's length reaches a result,
// which is also why Rewind (batched.go) and buffer recycling
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
	rows   []passRow      // filled by the caller: one state's rows adjacent, in position order, within its window
	x      *tensor.Tensor // residual stream (rows×Dim)
	norm   *tensor.Tensor // layer-norm output (rows×Dim)
	q      *tensor.Tensor // all heads' queries, head-major (rows×Dim)
	k      *tensor.Tensor // all heads' keys (rows×Dim)
	v      *tensor.Tensor // all heads' values (rows×Dim)
	concat *tensor.Tensor // concatenated head outputs (rows×Dim)
	att    *tensor.Tensor // attention / FFN output (rows×Dim)
	hidden *tensor.Tensor // FFN hidden (rows×Hidden)
	attn   int            // the pass's attention work: Σ over rows of 2·(pos+1)·Dim
	scores []float64      // attention scores of a run of up to four rows: per four-row group, four rows of keyBlocks·16
	smax   []float64      // softmax scratch, per group
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
	if n := (rows + 3) / 4 * cfg.keyBlocks() * 16; len(sc.smax) < n {
		sc.scores = make([]float64, 4*n)
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
	// A decode-sized pass (Append, a batch of one-token rows) runs each
	// phase once over all rows, serially and without allocating.
	if groups := (n + 3) / 4; rowFanOut(cfg, n) || parallelRows(groups, sc.attn) {
		l := 0
		phase := func(g int) { m.layerRows(c, sc, l, g*4, min(g*4+4, n), g) }
		for ; l <= len(m.Blocks); l++ {
			rowParallel(groups, phase)
		}
	} else {
		for l := 0; l <= len(m.Blocks); l++ {
			m.layerRows(c, sc, l, 0, n, 0)
		}
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
	c.out.matMat(logits, norm, 0, want)
	addBias(logits, c.outB, 0, want)
	for r := range rows {
		rows[r].kv.n = rows[r].end
	}
}

// layerRows runs phase l of a pass over rows [lo, hi), using score slot
// slot. A pass runs Layers+1 phases with a barrier between each, because
// causal attention (Eq. 13) is the only step that mixes positions: phase 0
// is layer 0's first half, and phase l in 1…Layers finishes layer l−1 and,
// below the top, starts layer l:
//   - layer l−1's attention over every head (attendRows);
//   - layer l−1's output projection and FFN, with the residual adds
//     (ffnRows);
//   - layer l's LN1 and Q/K/V (qkvRows), then the rows' keys and values
//     into their states (writeKV).
//
// The only cross-row reads are attention's: a row reads the K/V rows of its
// state's positions up to its own, which the previous phase wrote for every
// row of the pass. Everything else a phase reads and writes is the range's
// own rows of the scratch and, for attention, its own score slot, so a
// large pass runs each phase by four-row group across workers (rowPass),
// with bitwise the same result at any worker count.
func (m *Model) layerRows(c *compiledModel, sc *passScratch, l, lo, hi, slot int) {
	if l > 0 {
		sc.attendRows(m.Cfg, l-1, lo, hi, slot)
		sc.ffnRows(&c.layers[l-1], m.Blocks[l-1], lo, hi)
	}
	if l < len(m.Blocks) {
		sc.qkvRows(&c.layers[l], m.Blocks[l], lo, hi)
		sc.writeKV(m.Cfg, l, lo, hi)
	}
}

// rowFanOut reports whether a pass of n rows runs its row phases by
// four-row group across workers: once the pass's widest product, the FFN's
// n·Hidden·Dim, reaches rowParallelWork. At the serving benchmark's shape
// that is 16 rows, so a batch of eight decode rows stays serial.
func rowFanOut(cfg Config, n int) bool {
	return parallelRows((n+3)/4, n*cfg.Hidden*cfg.Dim)
}

// qkvRows is a block's first row phase over rows [lo, hi): the pre-norm
// LN1, then every head's queries, keys and values.
func (sc *passScratch) qkvRows(cl *compiledLayer, b *Block, lo, hi int) {
	attnIn := sc.x
	if !b.postNorm {
		attnIn = layerNormRowsInto(sc.norm, sc.x, b.LN1, lo, hi)
	}
	cl.wq.matMat(sc.q, attnIn, lo, hi)
	cl.wk.matMat(sc.k, attnIn, lo, hi)
	cl.wv.matMat(sc.v, attnIn, lo, hi)
}

// writeKV stores the keys and values of layer li that qkvRows left for rows
// [lo, hi) into the rows' states: each head's cache rows and key-pack lane
// at the row's position.
func (sc *passScratch) writeKV(cfg Config, li, lo, hi int) {
	hd := cfg.Dim / cfg.Heads
	for r := lo; r < hi; r++ {
		row := sc.rows[r]
		for h := 0; h < cfg.Heads; h++ {
			krow := sc.k.Row(r)[h*hd : (h+1)*hd]
			copy(row.kv.keys[li][h].Row(row.pos), krow)
			packKeyRow(row.kv.kpacks[li][h], krow, row.pos)
			copy(row.kv.vals[li][h].Row(row.pos), sc.v.Row(r)[h*hd:(h+1)*hd])
		}
	}
}

// ffnRows is a block's second row phase over rows [lo, hi): output
// projection of the concatenated heads and its residual add, then the FFN
// (norm, input map and bias, activation, output map and bias) and its
// residual add. A post-norm block takes both of its layer norms here.
func (sc *passScratch) ffnRows(cl *compiledLayer, b *Block, lo, hi int) {
	x := sc.x
	cl.wo.matMat(sc.att, sc.concat, lo, hi)
	addRows(x, sc.att, lo, hi)
	if b.postNorm {
		layerNormRowsInto(x, x, b.LN1, lo, hi)
	}
	ffnIn := x
	if !b.postNorm {
		ffnIn = layerNormRowsInto(sc.norm, x, b.LN2, lo, hi)
	}
	cl.ffnIn.matMat(sc.hidden, ffnIn, lo, hi)
	addBias(sc.hidden, cl.ffnInB, lo, hi)
	w := sc.hidden.Shape[1]
	actInto(b.FFN.Act, sc.hidden.Data[lo*w:hi*w])
	cl.ffnOut.matMat(sc.att, sc.hidden, lo, hi)
	addBias(sc.att, cl.ffnOutB, lo, hi)
	addRows(x, sc.att, lo, hi)
	if b.postNorm {
		layerNormRowsInto(x, x, b.LN2, lo, hi)
	}
}

// attendRows runs layer li's attention for rows [lo, hi), every head: per
// row and head it scores the state's positions [0, pos] against the row's
// query, takes the softmax and leaves the weighted value sum in the head's
// columns of sc.concat. Adjacent rows of one state — a prompt chunk's —
// score the same keys and sum the same values, so each head walks the
// range in runs of one state: four rows while four remain, then two, then
// one (a run of three is a pair and a single, as in matMatBlock). A run
// scores the key blocks through the one holding its first row's position
// with one fused multi-query kernel call per block, and each later row
// finishes its at most one further block alone. Softmax is per row. With
// sixteen-wide heads the run's value sum is fused the same way over the
// first row's positions, and each later row i adds its own positions
// pos+1 … pos+i after it (see runValueSum). Loop order over rows is free:
// every kernel's per-lane arithmetic is the same. Scores live in score slot
// slot, four rows of them, so ranges with distinct slots may run
// concurrently.
func (sc *passScratch) attendRows(cfg Config, li, lo, hi, slot int) {
	rows := sc.rows
	hd, stride := cfg.Dim/cfg.Heads, cfg.SparseStride
	w := cfg.keyBlocks() * 16
	var s [4][]float64 // the run's score rows
	for i := range s {
		s[i] = sc.scores[(slot*4+i)*w:][:w]
	}
	smax := sc.smax[slot*w:][:w]
	scale := 1 / math.Sqrt(float64(hd))
	for h := 0; h < cfg.Heads; h++ {
		c0, c1 := h*hd, (h+1)*hd
		for r := lo; r < hi; {
			row := rows[r]
			kc, vc, kp := row.kv.keys[li][h], row.kv.vals[li][h], row.kv.kpacks[li][h]
			if stride > 0 {
				maskedAttnScores(s[0], sc.q.Row(r)[c0:c1], kc, row.pos, stride)
				weightedValueSum(sc.concat.Row(r)[c0:c1], vc, attnWeights(s[0], smax, row.pos, scale), row.pos)
				r++
				continue
			}
			k := 1
			for k < 4 && r+k < hi && rows[r+k].kv == row.kv {
				k++
			}
			if k == 3 {
				k = 2
			}
			var q [4][]float64
			for i := range k {
				q[i] = sc.q.Row(r + i)[c0:c1]
			}
			shared := 0 // leading blocks the run scores together
			if k > 1 {
				shared = (row.pos + 16) / 16
			}
			for bk := 0; bk < shared; bk++ {
				blk, kb := bk*16, kp[bk*16*hd:(bk+1)*16*hd]
				if k == 4 {
					mathx.DotInterleaved16X4(
						(*[16]float64)(s[0][blk:blk+16]), (*[16]float64)(s[1][blk:blk+16]),
						(*[16]float64)(s[2][blk:blk+16]), (*[16]float64)(s[3][blk:blk+16]),
						kb, q[0], q[1], q[2], q[3])
				} else {
					mathx.DotInterleaved16X2(
						(*[16]float64)(s[0][blk:blk+16]), (*[16]float64)(s[1][blk:blk+16]),
						kb, q[0], q[1])
				}
			}
			for i := range k {
				packedAttnScores(s[i], q[i], kp, shared, row.pos+i)
				attnWeights(s[i], smax, row.pos+i, scale)
			}
			if hd == 16 && k > 1 {
				sc.runValueSum(s[:k], vc, r, c0, row.pos)
			} else {
				for i := range k {
					weightedValueSum(sc.concat.Row(r + i)[c0:c1], vc, s[i], row.pos+i)
				}
			}
			r += k
		}
	}
}

// attnWeights turns one row's raw scores over positions [0, pos] into its
// attention weights in place: scale by 1/√q, then softmax (the Boltzmann
// weights of Eq. 14).
func attnWeights(scores, smax []float64, pos int, scale float64) []float64 {
	s := scores[:pos+1]
	for j := range s {
		s[j] *= scale
	}
	return mathx.SoftmaxFastInto(s, s, smax, 1)
}

// runValueSum is weightedValueSum for a run of k = len(ws) (two or four)
// rows of one state at positions pos … pos+k−1 with sixteen-wide heads,
// into the head's columns c0… of sc.concat rows r…: one fused kernel call
// sums every row's weighted values over the first row's positions [0, pos],
// and row i then adds its positions pos+1 … pos+i in ascending order, one
// multiply and one add per lane. That is bitwise the single ascending
// reduction weightedValueSum runs, because the kernel starts each lane from
// zero and never fuses a multiply into an add; the conversion in
// float64(w·v) keeps the compiler from fusing the tail's (the Go spec
// allows x*y + z to fuse, and an explicit conversion forbids it).
func (sc *passScratch) runValueSum(ws [][]float64, vc *tensor.Tensor, r, c0, pos int) {
	var out [4]*[16]float64
	for i := range ws {
		out[i] = (*[16]float64)(sc.concat.Row(r + i)[c0:])
	}
	vs := vc.Data[:(pos+1)*16]
	if len(ws) == 4 {
		mathx.DotInterleaved16X4(out[0], out[1], out[2], out[3], vs,
			ws[0][:pos+1], ws[1][:pos+1], ws[2][:pos+1], ws[3][:pos+1])
	} else {
		mathx.DotInterleaved16X2(out[0], out[1], vs, ws[0][:pos+1], ws[1][:pos+1])
	}
	for i := 1; i < len(ws); i++ {
		o := out[i]
		for j := pos + 1; j <= pos+i; j++ {
			wj, v := ws[i][j], (*[16]float64)(vc.Row(j))
			for d := range o {
				o[d] += float64(wj * v[d])
			}
		}
	}
}

// layerNormRowsInto applies layerNormInto to rows [lo, hi) of x, into dst
// (which may alias x).
func layerNormRowsInto(dst, x *tensor.Tensor, ln *nn.LayerNorm, lo, hi int) *tensor.Tensor {
	for i := lo; i < hi; i++ {
		layerNormInto(dst.Row(i), x.Row(i), ln)
	}
	return dst
}

// addRows accumulates rows [lo, hi) of src into dst elementwise (two
// pass-scratch matrices of one shape, so the sum runs over the flat
// contiguous storage).
func addRows(dst, src *tensor.Tensor, lo, hi int) {
	w := src.Shape[1]
	d := dst.Data[lo*w : hi*w]
	for i, v := range src.Data[lo*w : hi*w] {
		d[i] += v
	}
}

// addBias adds b to rows [lo, hi) of t.
func addBias(t *tensor.Tensor, b []float64, lo, hi int) {
	for r := lo; r < hi; r++ {
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
