// Package transformer implements the paper's §6 "Recipe for an LLM": a
// GPT-style decoder-only transformer with multi-head causal self-attention
// (Eq. 13-14, with the bilinear form B factored into key and query
// matrices), position-wise FFN blocks (Eq. 11), residual connections, layer
// normalization, and sinusoidal (Eq. 15) or learned positional embeddings.
//
// The model exposes three views:
//   - Forward: autograd graph for training (backprop per Eq. 16),
//   - Trace: activation and attention-weight capture for probing (§7),
//   - Predictor with KV cache: fast inference without graph construction.
package transformer

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/autograd"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// PosKind selects the positional-embedding scheme.
type PosKind int

// Positional embedding variants (the ablation axis called out in DESIGN.md).
const (
	PosSinusoidal PosKind = iota // fixed sin/cos of Eq. 15
	PosLearned                   // trainable position table
	PosNone                      // no positional information (permutation-invariant)
)

// Config holds the hyperparameters of §6: embedding dimension p, hidden
// dimension ph, window length L, depth D and head count H.
type Config struct {
	Vocab  int
	Dim    int // p: embedding dimension; must be divisible by Heads
	Hidden int // ph: FFN hidden width; 0 means 4*Dim (the GPT-3 choice)
	Layers int // D: number of blocks (each block = one attention + one FFN layer)
	Heads  int // H: attention heads, head width q = p/H
	Window int // L: maximum context length

	Pos          PosKind
	Act          nn.Activation
	PostNorm     bool // use post-LN residuals instead of the default pre-LN
	SparseStride int  // 0 = dense causal attention; s>0 = strided sparse (§6)
}

func (c Config) withDefaults() Config {
	if c.Hidden == 0 {
		c.Hidden = 4 * c.Dim
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Vocab <= 0 || c.Dim <= 0 || c.Layers <= 0 || c.Heads <= 0 || c.Window <= 0 {
		return fmt.Errorf("transformer: non-positive hyperparameter in %+v", c)
	}
	if c.Dim%c.Heads != 0 {
		return fmt.Errorf("transformer: Dim %d not divisible by Heads %d", c.Dim, c.Heads)
	}
	return nil
}

// ---- Attention ----

// head is one attention head: the bilinear form B of Eq. 14 factored as
// Wq·Wkᵀ (restricting its rank to q = p/H), plus the value projection.
type head struct {
	Wq, Wk, Wv *nn.Linear // Dim → headDim, no bias
}

// Attention is the multi-head causal self-attention layer of Eq. 13-14.
type Attention struct {
	heads []*head
	Wo    *nn.Linear // Dim → Dim output projection (the linear map W of Eq. 13)
}

func newAttention(dim, numHeads int, rng *mathx.RNG) *Attention {
	hd := dim / numHeads
	a := &Attention{Wo: nn.NewLinear(dim, dim, false, rng)}
	for i := 0; i < numHeads; i++ {
		a.heads = append(a.heads, &head{
			Wq: nn.NewLinear(dim, hd, false, rng),
			Wk: nn.NewLinear(dim, hd, false, rng),
			Wv: nn.NewLinear(dim, hd, false, rng),
		})
	}
	return a
}

// Parameters implements nn.Module.
func (a *Attention) Parameters() []*autograd.Node {
	ps := a.Wo.Parameters()
	for _, h := range a.heads {
		ps = append(ps, h.Wq.Parameters()...)
		ps = append(ps, h.Wk.Parameters()...)
		ps = append(ps, h.Wv.Parameters()...)
	}
	return ps
}

// NumHeads returns the head count.
func (a *Attention) NumHeads() int { return len(a.heads) }

// HeadValueWeights exposes the value-projection weight tensor of head h for
// the ablation experiments of §7 (zeroing it removes the head's output
// while leaving its attention pattern intact).
func (a *Attention) HeadValueWeights(h int) *tensor.Tensor {
	return a.heads[h].Wv.W.Value
}

// forward computes masked multi-head attention over the L×Dim input. When
// trace is non-nil, the per-head attention weight matrices are recorded.
func (a *Attention) forward(x *autograd.Node, mask *tensor.Tensor, trace *LayerTrace) *autograd.Node {
	headDim := a.heads[0].Wq.W.Value.Shape[1]
	scale := 1 / math.Sqrt(float64(headDim))
	outs := make([]*autograd.Node, len(a.heads))
	for i, h := range a.heads {
		q := h.Wq.Forward(x)
		k := h.Wk.Forward(x)
		v := h.Wv.Forward(x)
		// c_{ij} ∝ exp(u_i · B · u_j): scores = (Q Kᵀ)/√q, causally masked,
		// then the Boltzmann weights of Eq. 14 via row softmax.
		scores := autograd.Scale(autograd.MatMul(q, autograd.Transpose(k)), scale)
		weights := autograd.SoftmaxRows(autograd.AddMask(scores, mask))
		if trace != nil {
			trace.Attention = append(trace.Attention, weights.Value.Clone())
		}
		// v_i = Σ_j c_{ij} u_j (Eq. 13), per head.
		outs[i] = autograd.MatMul(weights, v)
	}
	// Concatenate head outputs back to dimension p and apply W.
	return a.Wo.Forward(autograd.ConcatCols(outs...))
}

// ---- Block ----

// Block is one transformer block: attention and FFN sublayers, each wrapped
// in a residual connection with layer normalization.
type Block struct {
	Attn *Attention
	FFN  *nn.FFN
	LN1  *nn.LayerNorm
	LN2  *nn.LayerNorm

	postNorm bool
}

func newBlock(cfg Config, rng *mathx.RNG) *Block {
	return &Block{
		Attn:     newAttention(cfg.Dim, cfg.Heads, rng),
		FFN:      nn.NewFFN(cfg.Dim, cfg.Hidden, cfg.Act, rng),
		LN1:      nn.NewLayerNorm(cfg.Dim),
		LN2:      nn.NewLayerNorm(cfg.Dim),
		postNorm: cfg.PostNorm,
	}
}

// Parameters implements nn.Module.
func (b *Block) Parameters() []*autograd.Node {
	ps := b.Attn.Parameters()
	ps = append(ps, b.FFN.Parameters()...)
	ps = append(ps, b.LN1.Parameters()...)
	ps = append(ps, b.LN2.Parameters()...)
	return ps
}

func (b *Block) forward(x *autograd.Node, mask *tensor.Tensor, trace *LayerTrace) *autograd.Node {
	if b.postNorm {
		// Original-paper ordering: sublayer then norm.
		x = b.LN1.Forward(autograd.Add(x, b.Attn.forward(x, mask, trace)))
		x = b.LN2.Forward(autograd.Add(x, b.FFN.Forward(x)))
		return x
	}
	// Pre-LN (GPT-2/3 style): norm then sublayer; more stable to train.
	x = autograd.Add(x, b.Attn.forward(b.LN1.Forward(x), mask, trace))
	x = autograd.Add(x, b.FFN.Forward(b.LN2.Forward(x)))
	return x
}

// ---- Model ----

// Model is the decoder-only transformer language model.
type Model struct {
	Cfg Config

	TokEmb    *nn.Embedding
	PosTable  *autograd.Node // learned positions (PosLearned) or nil
	sinTable  *tensor.Tensor // fixed sinusoidal table (PosSinusoidal) or nil
	Blocks    []*Block
	FinalNorm *nn.LayerNorm
	Output    *nn.Linear // Dim → Vocab

	masks map[int]*tensor.Tensor // cached causal masks per length

	// Inference-compiled weight snapshot, built lazily by the predictors
	// and shared between them; train.Run invalidates it after mutating the
	// weights (see InvalidateCompiled).
	compiledMu    sync.Mutex
	compiledCache *compiledModel

	// Predictor chunk-pass scratch (*passScratch), pooled per model so each
	// fresh Predictor reuses a previous one's buffers instead of allocating
	// them on its first Extend.
	pfPool sync.Pool

	// KV buffers of dropped batch sequences (*batchSeq), reused by the next
	// BatchedPredictor.Add instead of allocating and zeroing a window of KV
	// rows per request.
	seqPool sync.Pool
}

// New constructs a model with §6 initialization (weights ~ N(0, 1/√fan-in)).
func New(cfg Config, rng *mathx.RNG) (*Model, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		Cfg:       cfg,
		TokEmb:    nn.NewEmbedding(cfg.Vocab, cfg.Dim, rng),
		FinalNorm: nn.NewLayerNorm(cfg.Dim),
		Output:    nn.NewLinear(cfg.Dim, cfg.Vocab, true, rng),
		masks:     map[int]*tensor.Tensor{},
	}
	switch cfg.Pos {
	case PosLearned:
		m.PosTable = autograd.Param(tensor.New(cfg.Window, cfg.Dim).RandNorm(rng, 0.02))
	case PosSinusoidal:
		m.sinTable = SinusoidalTable(cfg.Window, cfg.Dim)
	}
	for i := 0; i < cfg.Layers; i++ {
		m.Blocks = append(m.Blocks, newBlock(cfg, rng))
	}
	return m, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config, rng *mathx.RNG) *Model {
	m, err := New(cfg, rng)
	if err != nil {
		panic(err)
	}
	return m
}

// SinusoidalTable builds the Eq. 15 positional encoding table (maxLen×dim):
// pairs (cos, sin) at geometrically spaced frequencies.
func SinusoidalTable(maxLen, dim int) *tensor.Tensor {
	t := tensor.New(maxLen, dim)
	for pos := 0; pos < maxLen; pos++ {
		row := t.Row(pos)
		for i := 0; i < dim/2; i++ {
			freq := math.Pow(10000, -2*float64(i)/float64(dim))
			row[2*i] = math.Cos(float64(pos) * freq)
			if 2*i+1 < dim {
				row[2*i+1] = math.Sin(float64(pos) * freq)
			}
		}
	}
	return t
}

// Parameters implements nn.Module.
func (m *Model) Parameters() []*autograd.Node {
	ps := m.TokEmb.Parameters()
	if m.PosTable != nil {
		ps = append(ps, m.PosTable)
	}
	for _, b := range m.Blocks {
		ps = append(ps, b.Parameters()...)
	}
	ps = append(ps, m.FinalNorm.Parameters()...)
	ps = append(ps, m.Output.Parameters()...)
	return ps
}

// NumParameters counts trainable scalars.
func (m *Model) NumParameters() int { return nn.NumParameters(m) }

// Replica returns a weight-sharing copy of m for data-parallel training: it
// aliases every parameter Value tensor (optimizer updates to the parent are
// immediately visible) but owns fresh gradient buffers and a private causal-
// mask cache, so forward/backward passes on the replica are safe to run
// concurrently with passes on the parent or on sibling replicas.
func (m *Model) Replica() *Model {
	r := &Model{
		Cfg:       m.Cfg,
		TokEmb:    m.TokEmb.Replica(),
		sinTable:  m.sinTable,
		FinalNorm: m.FinalNorm.Replica(),
		Output:    m.Output.Replica(),
		masks:     map[int]*tensor.Tensor{},
	}
	if m.PosTable != nil {
		r.PosTable = autograd.Param(m.PosTable.Value)
	}
	for _, b := range m.Blocks {
		r.Blocks = append(r.Blocks, b.replica())
	}
	return r
}

// ReplicaModule implements nn.Replicable.
func (m *Model) ReplicaModule() nn.Module { return m.Replica() }

func (b *Block) replica() *Block {
	return &Block{
		Attn:     b.Attn.replica(),
		FFN:      b.FFN.Replica(),
		LN1:      b.LN1.Replica(),
		LN2:      b.LN2.Replica(),
		postNorm: b.postNorm,
	}
}

func (a *Attention) replica() *Attention {
	r := &Attention{Wo: a.Wo.Replica()}
	for _, h := range a.heads {
		r.heads = append(r.heads, &head{
			Wq: h.Wq.Replica(), Wk: h.Wk.Replica(), Wv: h.Wv.Replica(),
		})
	}
	return r
}

// causalMask returns (cached) the L×L additive mask enforcing j ≤ i
// (Eq. 13's restriction); with SparseStride s > 0, position i additionally
// attends only to the s most recent positions and every s-th earlier one.
func (m *Model) causalMask(l int) *tensor.Tensor {
	if mk, ok := m.masks[l]; ok {
		return mk
	}
	mk := tensor.New(l, l)
	s := m.Cfg.SparseStride
	for i := 0; i < l; i++ {
		for j := 0; j < l; j++ {
			blocked := j > i
			if !blocked && s > 0 {
				recent := i-j < s
				strided := j%s == 0
				blocked = !recent && !strided
			}
			if blocked {
				mk.Set(i, j, math.Inf(-1))
			}
		}
	}
	m.masks[l] = mk
	return mk
}

// Trace captures intermediate state for the probing experiments of §7.
type Trace struct {
	// Embedded is the input embedding (after positions), L×Dim.
	Embedded *tensor.Tensor
	// Layers[k] holds the k-th block's outputs and attention maps.
	Layers []*LayerTrace
}

// LayerTrace is per-block capture.
type LayerTrace struct {
	// Attention[h] is the L×L weight matrix of head h.
	Attention []*tensor.Tensor
	// Output is the block's residual-stream output, L×Dim (the
	// "contextualized embeddings" of §7).
	Output *tensor.Tensor
}

// Forward runs the model on a token sequence (length ≤ Window) and returns
// the L×Vocab logits node. A non-nil trace records activations.
func (m *Model) Forward(ids []int, trace *Trace) *autograd.Node {
	l := len(ids)
	if l == 0 || l > m.Cfg.Window {
		panic(fmt.Sprintf("transformer: sequence length %d out of range (1..%d)", l, m.Cfg.Window))
	}
	x := m.TokEmb.Forward(ids)
	switch m.Cfg.Pos {
	case PosLearned:
		x = autograd.Add(x, autograd.SliceRows(m.PosTable, 0, l))
	case PosSinusoidal:
		pos := tensor.New(l, m.Cfg.Dim)
		for i := 0; i < l; i++ {
			copy(pos.Row(i), m.sinTable.Row(i))
		}
		x = autograd.Add(x, autograd.Const(pos))
	}
	if trace != nil {
		trace.Embedded = x.Value.Clone()
	}
	mask := m.causalMask(l)
	for _, b := range m.Blocks {
		var lt *LayerTrace
		if trace != nil {
			lt = &LayerTrace{}
		}
		x = b.forward(x, mask, lt)
		if trace != nil {
			lt.Output = x.Value.Clone()
			trace.Layers = append(trace.Layers, lt)
		}
	}
	x = m.FinalNorm.Forward(x)
	return m.Output.Forward(x)
}

// Loss computes the Eq. 3 objective for one window: the mean cross entropy
// of targets (length L, -1 = ignore) under the model's next-token logits.
func (m *Model) Loss(input, target []int) *autograd.Node {
	return autograd.CrossEntropy(m.Forward(input, nil), target)
}

// ForwardLogits returns the raw logits tensor for input, for evaluation
// code that does not need gradient state.
func (m *Model) ForwardLogits(input []int) *tensor.Tensor {
	return m.Forward(input, nil).Value
}

// HiddenStates runs the blocks and final norm on an already-embedded input
// node (L×Dim) with causal masking, returning the L×Dim hidden states. It
// serves models whose inputs are not discrete tokens — e.g. the in-context
// regression experiment (§4), where each "token" is a feature vector.
// Gradients flow through to both the input node and the block parameters.
func (m *Model) HiddenStates(x *autograd.Node) *autograd.Node {
	mask := m.causalMask(x.Value.Shape[0])
	for _, b := range m.Blocks {
		x = b.forward(x, mask, nil)
	}
	return m.FinalNorm.Forward(x)
}

// InferFromLayer resumes the forward pass from block index start given a
// residual-stream state x (L×Dim) and returns the logits. This is the
// surgery primitive behind the §7 intervention experiment: probe-guided
// edits to an intermediate activation are pushed through the remaining
// layers to observe their causal effect on predictions.
func (m *Model) InferFromLayer(x *tensor.Tensor, start int) *tensor.Tensor {
	if start < 0 || start > len(m.Blocks) {
		panic(fmt.Sprintf("transformer: layer %d out of range", start))
	}
	node := autograd.Const(x.Clone())
	mask := m.causalMask(x.Shape[0])
	for _, b := range m.Blocks[start:] {
		node = b.forward(node, mask, nil)
	}
	node = m.FinalNorm.Forward(node)
	return m.Output.Forward(node).Value
}

// ---- Parameter accounting (Table 1 / §6) ----

// CountParameters returns the exact number of trainable scalars for cfg
// without building a model.
func CountParameters(cfg Config) int {
	cfg = cfg.withDefaults()
	hd := cfg.Dim / cfg.Heads
	perHead := 3 * cfg.Dim * hd                 // Wq, Wk, Wv
	attn := cfg.Heads*perHead + cfg.Dim*cfg.Dim // + Wo
	ffn := cfg.Dim*cfg.Hidden + cfg.Hidden + cfg.Hidden*cfg.Dim + cfg.Dim
	ln := 2 * cfg.Dim // gain + bias
	perBlock := attn + ffn + 2*ln
	emb := cfg.Vocab * cfg.Dim
	pos := 0
	if cfg.Pos == PosLearned {
		pos = cfg.Window * cfg.Dim
	}
	out := cfg.Dim*cfg.Vocab + cfg.Vocab
	return emb + pos + cfg.Layers*perBlock + ln + out
}

// GPT3Estimate returns the paper's §6 closed-form estimate ≈ 12·D·p² for
// the non-embedding parameters of a model with D transformer blocks of
// width p: each block contributes 4p² from attention (Q, K, V and output
// projections) plus 8p² from the FFN with ph = 4p. GPT-3's quoted D = 96,
// p = 12288 yields ≈175B.
func GPT3Estimate(dBlocks, p int) int {
	return 12 * dBlocks * p * p
}

// ---- Inference with KV cache ----

// Predictor performs autoregressive inference with per-layer key/value
// caching, so each new token costs O(L·p) attention work instead of
// rebuilding the full O(L²) graph. It reads the trained weights and does
// not construct autograd state.
//
// Predictor is a thin owner of one KV state and a one-row scratch arena
// over the model's row-pass kernel (rowPass, prefill.go): NewPredictor runs
// the inference compile step that packs every projection into transposed
// contiguous layout, the KV cache is preallocated to the full window (no
// copy-growth per token), and Append is a pass of one row whose
// intermediates live in the arena — steady-state decoding performs zero
// heap allocations while producing logits bitwise identical to the training
// graph's forward pass. BatchedPredictor runs the same kernel over many KV
// states; the two differ in batching only.
//
// Predictor is the transformer's streaming hook: it satisfies
// sample.Stepper, so the unified generation API (lm.Gen / lm.Stream and the
// serving front end) drives it token by token exactly like the other model
// substrates.
type Predictor struct {
	m       *Model
	c       *compiledModel
	kvState // the sequence's cache; rows [0, n) are valid

	sc     passScratch // Append's one-row arena, sized by the first Append
	logits logitBuf    // Append / Extend result
}

// NewPredictor compiles m's weights into the packed inference layout and
// returns an empty-cache predictor over them. The compile step snapshots
// the matrix weights; training m further does not retarget an existing
// predictor.
func (m *Model) NewPredictor() *Predictor {
	return &Predictor{m: m, c: m.compile(), kvState: newKVState(m.Cfg)}
}

// keyBlocks is the window in sixteen-row key blocks, the last one partial
// when Window is not a multiple of sixteen.
func (c Config) keyBlocks() int { return (c.Window + 15) / 16 }

// keyPackLen is the per-head interleaved key-pack size: the window rounded
// up to whole sixteen-row blocks, so every position has a lane. Sparse-stride
// attention always scores through the masked per-row path and never reads a
// pack, so those configs keep the packs empty (packKeyRow on an empty pack
// is a no-op) rather than doubling key-cache memory for nothing.
func (c Config) keyPackLen(hd int) int {
	if c.SparseStride > 0 {
		return 0
	}
	return c.keyBlocks() * 16 * hd
}

// Len returns the number of cached positions.
func (p *Predictor) Len() int { return p.n }

// Append feeds one token and returns the logits for the next position
// (length Vocab). It panics when the window is exhausted.
//
// The returned slice is the predictor's reusable scratch: it is valid until
// the next Append call, matching how every decoding loop in this repository
// consumes logits (pick a token, then step again). Clone it to retain.
func (p *Predictor) Append(id int) []float64 {
	if p.n >= p.m.Cfg.Window {
		panic("transformer: predictor window exhausted")
	}
	p.sc.rows = append(p.sc.rows[:0], passRow{kv: &p.kvState, tok: id, logits: true})
	p.m.rowPass(p.c, &p.sc, &p.logits)
	return p.logits.rows[0]
}

// weightedValueSum accumulates the attention-weighted value rows into out:
// out[d] = Σ_j w[j]·v_j[d], j ascending (Eq. 13's convex combination). For
// the common 16-wide head, the position-major value cache is exactly the
// element-interleaved layout mathx.DotInterleaved16 consumes (lane d sweeps
// positions in order), so one kernel call does the whole reduction; other
// widths take the scalar loop. Both run every output's additions in the
// same ascending-j order as the training graph.
func weightedValueSum(out []float64, vc *tensor.Tensor, w []float64, pos int) {
	if len(out) == 16 {
		mathx.DotInterleaved16((*[16]float64)(out), vc.Data[:(pos+1)*16], w[:pos+1])
		return
	}
	for d := range out {
		out[d] = 0
	}
	for j := 0; j <= pos; j++ {
		if w[j] == 0 {
			continue
		}
		vr := vc.Row(j)
		for d := range out {
			out[d] += w[j] * vr[d]
		}
	}
}

// packKeyRow scatters one head's new key row into its interleaved prefix
// pack: lane pos%16 of block pos/16 (element i of all sixteen positions in
// a block is contiguous, the layout mathx.DotInterleaved16 consumes). Every
// pass maintains the pack incrementally as it writes each key, so scoring
// reads ready-packed blocks and nothing ever re-packs the prefix.
func packKeyRow(kp, row []float64, pos int) {
	if len(kp) == 0 {
		return
	}
	hd := len(row)
	seg := kp[(pos>>4)*16*hd:]
	lane := pos & 15
	for i, v := range row {
		seg[i*16+lane] = v
	}
}

// packedAttnScores fills scores[j] = q · key row j for the key pack's
// blocks from block `from` through the one holding position pos, sixteen
// keys per interleaved kernel call. The lanes of that last block past pos
// are computed too, from keys the row may not see (a later row of the pass,
// or stale past the state's length); they land beyond scores[:pos+1] and are
// never read. Each score accumulates its products in the same ascending
// element order as a plain mathx.Dot, so results are bitwise identical to
// the per-row loop. Sparse-stride attention takes maskedAttnScores instead.
func packedAttnScores(scores, q, kp []float64, from, pos int) {
	hd := len(q)
	for bk := from; bk < (pos+16)/16; bk++ {
		mathx.DotInterleaved16((*[16]float64)(scores[bk*16:bk*16+16]),
			kp[bk*16*hd:(bk+1)*16*hd], q)
	}
}

// maskedAttnScores is the sparse-stride scorer (§6): position pos attends
// to the stride most recent positions and every stride-th earlier one;
// every other score is −∞, which the softmax turns into weight zero.
func maskedAttnScores(scores, q []float64, keys *tensor.Tensor, pos, stride int) {
	for j := 0; j <= pos; j++ {
		if pos-j >= stride && j%stride != 0 {
			scores[j] = math.Inf(-1)
			continue
		}
		scores[j] = mathx.Dot(keys.Row(j), q)
	}
}

// layerNormInto writes ln(x) into dst (dst may alias x): the inference-path
// layer norm, one residual row at a time.
func layerNormInto(dst, x []float64, ln *nn.LayerNorm) {
	mu := mathx.Mean(x)
	va := 0.0
	for _, v := range x {
		d := v - mu
		va += d * d
	}
	va /= float64(len(x))
	is := 1 / math.Sqrt(va+ln.Eps)
	g := ln.Gain.Value.Row(0)
	b := ln.Bias.Value.Row(0)
	for i, v := range x {
		dst[i] = (v-mu)*is*g[i] + b[i]
	}
}
