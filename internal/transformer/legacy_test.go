package transformer

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file preserves the pre-compile Predictor implementation verbatim as a
// reference: the decode fast path must reproduce its logits bitwise (same
// accumulation order everywhere), and the E19 experiment measures the
// speedup against it. It is the slow path by construction — training-layout
// matVec, copy-grown KV cache, fresh slices per token.

type legacyPredictor struct {
	m    *Model
	keys [][]*tensor.Tensor
	vals [][]*tensor.Tensor
	n    int
}

func newLegacyPredictor(m *Model) *legacyPredictor {
	p := &legacyPredictor{m: m}
	p.keys = make([][]*tensor.Tensor, len(m.Blocks))
	p.vals = make([][]*tensor.Tensor, len(m.Blocks))
	for i, b := range m.Blocks {
		p.keys[i] = make([]*tensor.Tensor, b.Attn.NumHeads())
		p.vals[i] = make([]*tensor.Tensor, b.Attn.NumHeads())
		hd := m.Cfg.Dim / m.Cfg.Heads
		for h := range p.keys[i] {
			p.keys[i][h] = tensor.New(0, hd)
			p.vals[i][h] = tensor.New(0, hd)
		}
	}
	return p
}

func (p *legacyPredictor) Append(id int) []float64 {
	m := p.m
	if p.n >= m.Cfg.Window {
		panic("transformer: legacy predictor window exhausted")
	}
	pos := p.n
	x := make([]float64, m.Cfg.Dim)
	copy(x, m.TokEmb.W.Value.Row(id))
	switch m.Cfg.Pos {
	case PosLearned:
		for j, v := range m.PosTable.Value.Row(pos) {
			x[j] += v
		}
	case PosSinusoidal:
		for j, v := range m.sinTable.Row(pos) {
			x[j] += v
		}
	}
	for li, b := range m.Blocks {
		x = p.blockStep(li, b, x, pos)
	}
	x = legacyLayerNorm(x, m.FinalNorm)
	logits := make([]float64, m.Cfg.Vocab)
	w := m.Output.W.Value
	for j := range x {
		if x[j] == 0 {
			continue
		}
		row := w.Row(j)
		for o := range logits {
			logits[o] += x[j] * row[o]
		}
	}
	for o, bv := range m.Output.B.Value.Row(0) {
		logits[o] += bv
	}
	p.n++
	return logits
}

func (p *legacyPredictor) blockStep(li int, b *Block, x []float64, pos int) []float64 {
	m := p.m
	hd := m.Cfg.Dim / m.Cfg.Heads
	attnIn := x
	if !b.postNorm {
		attnIn = legacyLayerNorm(x, b.LN1)
	}
	concat := make([]float64, m.Cfg.Dim)
	for hi, h := range b.Attn.heads {
		q := legacyMatVecT(h.Wq.W.Value, attnIn)
		k := legacyMatVecT(h.Wk.W.Value, attnIn)
		v := legacyMatVecT(h.Wv.W.Value, attnIn)
		p.keys[li][hi] = legacyAppendRow(p.keys[li][hi], k)
		p.vals[li][hi] = legacyAppendRow(p.vals[li][hi], v)
		kc, vc := p.keys[li][hi], p.vals[li][hi]
		scale := 1 / math.Sqrt(float64(hd))
		scores := make([]float64, pos+1)
		s := m.Cfg.SparseStride
		for j := 0; j <= pos; j++ {
			if s > 0 && pos-j >= s && j%s != 0 {
				scores[j] = math.Inf(-1)
				continue
			}
			scores[j] = mathx.Dot(q, kc.Row(j)) * scale
		}
		w := mathx.Softmax(scores, 1)
		out := make([]float64, hd)
		for j := 0; j <= pos; j++ {
			if w[j] == 0 {
				continue
			}
			vr := vc.Row(j)
			for d := range out {
				out[d] += w[j] * vr[d]
			}
		}
		copy(concat[hi*hd:(hi+1)*hd], out)
	}
	attnOut := legacyMatVecT(b.Attn.Wo.W.Value, concat)
	res := make([]float64, len(x))
	for i := range res {
		res[i] = x[i] + attnOut[i]
	}
	if b.postNorm {
		res = legacyLayerNorm(res, b.LN1)
	}
	ffnIn := res
	if !b.postNorm {
		ffnIn = legacyLayerNorm(res, b.LN2)
	}
	ffnOut := legacyFFN(b.FFN, ffnIn)
	out := make([]float64, len(res))
	for i := range out {
		out[i] = res[i] + ffnOut[i]
	}
	if b.postNorm {
		out = legacyLayerNorm(out, b.LN2)
	}
	return out
}

func legacyAppendRow(t *tensor.Tensor, row []float64) *tensor.Tensor {
	cols := t.Shape[1]
	return &tensor.Tensor{Shape: []int{t.Shape[0] + 1, cols}, Data: append(t.Data, row...)}
}

func legacyMatVecT(w *tensor.Tensor, x []float64) []float64 {
	out := make([]float64, w.Shape[1])
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		row := w.Row(i)
		for j, wv := range row {
			out[j] += xv * wv
		}
	}
	return out
}

func legacyLayerNorm(x []float64, ln *nn.LayerNorm) []float64 {
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
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = (v-mu)*is*g[i] + b[i]
	}
	return out
}

func legacyFFN(f *nn.FFN, x []float64) []float64 {
	h := legacyMatVecT(f.In.W.Value, x)
	for i, bv := range f.In.B.Value.Row(0) {
		h[i] += bv
	}
	for i, v := range h {
		h[i] = actScalar(f.Act, v)
	}
	out := legacyMatVecT(f.Out.W.Value, h)
	for i, bv := range f.Out.B.Value.Row(0) {
		out[i] += bv
	}
	return out
}

// actScalar is the reference's scalar activation; the kernel's vectorized
// actInto must equal it bitwise, element by element.
func actScalar(a nn.Activation, x float64) float64 {
	switch a {
	case nn.ReLU:
		if x > 0 {
			return x
		}
		return 0
	case nn.Tanh:
		return math.Tanh(x)
	case nn.GELU:
		return mathx.GELU(x)
	default:
		panic("transformer: unknown activation")
	}
}

// TestCompiledPredictorMatchesLegacyBitwise drives the row-pass kernel and
// the preserved pre-compile implementation over identical token streams
// across every positional scheme, norm order, and the sparse mask: logits
// must agree bitwise at every position, not just within tolerance — the whole
// fast path is layout and reuse changes, never arithmetic changes. Predictor
// and BatchedPredictor share the kernel, so tests that compare them compare it
// with itself; this table is where every entry point meets the reference.
// The last two configs have sixteen-wide heads (the DotInterleaved16 value
// sum) and windows that cross full key-pack blocks plus a partial tail; the
// last is the serving benchmark's shape, whose 32- and 64-row chunks take
// matMat's block-parallel and quad-parallel branches (run it under -race).
func TestCompiledPredictorMatchesLegacyBitwise(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // matMat fans out only with ≥ 2 workers
	}
	for _, cfg := range []Config{
		{Vocab: 23, Dim: 16, Layers: 2, Heads: 2, Window: 14, Pos: PosLearned, Act: nn.GELU},
		{Vocab: 23, Dim: 16, Layers: 1, Heads: 4, Window: 14, Pos: PosSinusoidal, Act: nn.ReLU},
		{Vocab: 23, Dim: 16, Layers: 2, Heads: 2, Window: 14, Pos: PosNone, Act: nn.Tanh, PostNorm: true},
		{Vocab: 23, Dim: 16, Layers: 2, Heads: 2, Window: 14, Pos: PosLearned, Act: nn.GELU, SparseStride: 3},
		{Vocab: 23, Dim: 32, Layers: 2, Heads: 2, Window: 50, Pos: PosLearned, Act: nn.GELU},
		{Vocab: 64, Dim: 64, Layers: 2, Heads: 4, Window: 150, Pos: PosSinusoidal, Act: nn.GELU},
	} {
		m := MustNew(cfg, mathx.NewRNG(77))
		rng := mathx.NewRNG(78)
		tag := func(s string) string { return fmt.Sprintf("cfg %+v: %s", cfg, s) }
		// The reference: one window-long stream, want[i] the logits after toks[i].
		toks := make([]int, cfg.Window)
		want := make([][]float64, cfg.Window)
		slow := newLegacyPredictor(m)
		for i := range toks {
			toks[i] = rng.Intn(cfg.Vocab)
			want[i] = slow.Append(toks[i])
		}

		// (a) Append, token by token.
		fast := m.NewPredictor()
		for i, id := range toks {
			bitsEqual(t, tag("append"), fast.Append(id), want[i])
		}

		// (b) Extend in ragged chunks, clipped to the window.
		fast = m.NewPredictor()
		for _, n := range []int{1, 15, 16, 17, 32, 64, cfg.Window} {
			lo, hi := fast.Len(), min(fast.Len()+n, cfg.Window)
			if lo < hi {
				bitsEqual(t, tag("extend"), fast.Extend(toks[lo:hi]), want[hi-1])
			}
		}

		// (c) A 3-wide Step over sequences prefilled to different lengths.
		bp := m.NewBatchedPredictor()
		lens := []int{1, cfg.Window / 3, cfg.Window / 2}
		ids := make([]int, len(lens))
		next := make([]int, len(lens))
		for i, l := range lens {
			ids[i] = bp.Add()
			bitsEqual(t, tag("prefill"), bp.Prefill(ids[i], toks[:l]), want[l-1])
		}
		for lens[2] < cfg.Window {
			for i, l := range lens {
				next[i] = toks[l]
			}
			for i, row := range bp.Step(ids, next) {
				bitsEqual(t, tag("step"), row, want[lens[i]])
				lens[i]++
			}
		}

		// (d) PrefillAll: row r is the reference's r-th Append.
		id := bp.Add()
		for _, span := range [][2]int{{0, 5}, {5, cfg.Window}} {
			for r, row := range bp.PrefillAll(id, toks[span[0]:span[1]]) {
				bitsEqual(t, tag("prefillall"), row, want[span[0]+r])
			}
		}

		// (e) Rewind over rows and pack lanes holding other tokens, then re-feed.
		a := cfg.Window / 2
		junk := make([]int, cfg.Window-a)
		for i := range junk {
			junk[i] = (toks[a+i] + 1) % cfg.Vocab
		}
		fast = m.NewPredictor()
		fast.Extend(toks[:a])
		fast.ExtendAll(junk)
		fast.Rewind(len(junk))
		bitsEqual(t, tag("rewind/append"), fast.Append(toks[a]), want[a])
		for r, row := range fast.ExtendAll(toks[a+1:]) {
			bitsEqual(t, tag("rewind/extendall"), row, want[a+1+r])
		}
		bp.Rewind(id, cfg.Window-a)
		bp.PrefillAll(id, junk)
		bp.Rewind(id, len(junk))
		bitsEqual(t, tag("rewind/step"), bp.Step([]int{id}, toks[a:a+1])[0], want[a])
	}
}

// BenchmarkDecodeTokenVsLegacy is the E19 before/after pair at the E18
// serving shape: per-token Append cost of the compiled fast path against
// the preserved pre-compile implementation.
func BenchmarkDecodeTokenVsLegacy(b *testing.B) {
	cfg := Config{Vocab: 33, Dim: 32, Layers: 2, Heads: 2, Window: 32,
		Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(9))
	rng := mathx.NewRNG(10)
	b.Run("compiled", func(b *testing.B) {
		p := m.NewPredictor()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if p.Len() >= cfg.Window {
				b.StopTimer()
				p = m.NewPredictor()
				b.StartTimer()
			}
			p.Append(rng.Intn(cfg.Vocab))
		}
	})
	b.Run("legacy", func(b *testing.B) {
		p := newLegacyPredictor(m)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if p.n >= cfg.Window {
				b.StopTimer()
				p = newLegacyPredictor(m)
				b.StartTimer()
			}
			p.Append(rng.Intn(cfg.Vocab))
		}
	})
}
