package transformer

import (
	"fmt"
	"math"
	"runtime"
	"sync"
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
// last is the serving benchmark's shape, whose 32- and 64-row chunks fan
// out every phase of the pass by row group (rowFanOut; run it under
// -race).
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

		// (d) An all-rows chunk: row r is the reference's r-th Append.
		id := bp.Add()
		for _, span := range [][2]int{{0, 5}, {5, cfg.Window}} {
			for r, row := range bp.Pass([]Chunk{{ID: id, Tokens: toks[span[0]:span[1]], All: true}}) {
				bitsEqual(t, tag("pass/all"), row, want[span[0]+r])
			}
		}

		// (e) Rewind over rows and pack lanes holding other tokens, then re-feed.
		a := cfg.Window / 2
		junk := make([]int, cfg.Window-a)
		for i := range junk {
			junk[i] = (toks[a+i] + 1) % cfg.Vocab
		}
		bp.Rewind(id, cfg.Window-a)
		bp.Pass([]Chunk{{ID: id, Tokens: junk, All: true}})
		bp.Rewind(id, len(junk))
		bitsEqual(t, tag("rewind/step"), bp.Step([]int{id}, toks[a:a+1])[0], want[a])

		// (f) One Pass mixing what a serving iteration can hold: three decode
		// rows (one at a key-pack block's first lane where the window has a
		// second block), a prompt chunk that crosses a block boundary where
		// the window allows, and an all-rows chunk.
		w := cfg.Window
		starts := []int{1, w / 3, w - 1, w / 4, w / 2}
		ends := []int{2, w/3 + 1, w, min(w/4+20, w), min(w/2+5, w)}
		bp = m.NewBatchedPredictor()
		chunks := make([]Chunk, len(starts))
		for i, s := range starts {
			id := bp.Add()
			bp.Prefill(id, toks[:s])
			chunks[i] = Chunk{ID: id, Tokens: toks[s:ends[i]], All: i == len(starts)-1}
		}
		rows := bp.Pass(chunks)
		r := 0
		for i, c := range chunks {
			for j := range c.Tokens {
				if c.All || j == len(c.Tokens)-1 {
					bitsEqual(t, tag("pass/mixed"), rows[r], want[starts[i]+j])
					r++
				}
			}
		}
		if r != len(rows) {
			t.Fatalf("%s: mixed pass returned %d rows, want %d", tag("pass/mixed"), len(rows), r)
		}
	}
}

// TestAttentionFanOutBitwise aims at attention in a fanned-out pass: one
// pass at the serving benchmark's shape mixing eight decode rows at context
// ≥ 200 with a 32-row prompt chunk — enough attention work to open the
// gate, and row groups that hold decode rows of different states next to a
// chunk's rows — must leave logits bitwise equal to the legacy reference
// and every K/V row and key-pack lane bitwise equal to a solo Predictor's,
// at GOMAXPROCS 1 (serial), 2 and 8.
func TestAttentionFanOutBitwise(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := Config{Vocab: 64, Dim: 64, Layers: 2, Heads: 4, Window: 320, Pos: PosSinusoidal, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(31))
	rng := mathx.NewRNG(32)
	// Sequence i < 8 decodes one row after a 200+i-token history; sequence 8
	// takes a 32-row chunk after 170 tokens, crossing two key-pack blocks.
	hists := make([][]int, 9)
	feed := make([]int, 9) // tokens of each history that go into the mixed pass
	want := make([][][]float64, 9)
	for i := range hists {
		n, k := 201+i, 1
		if i == 8 {
			n, k = 202, 32
		}
		hists[i], feed[i] = randTokens(rng, n, cfg.Vocab), k
		slow := newLegacyPredictor(m)
		for _, tok := range hists[i] {
			want[i] = append(want[i], slow.Append(tok))
		}
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		tag := func(s string) string { return fmt.Sprintf("GOMAXPROCS %d: %s", procs, s) }
		bp := m.NewBatchedPredictor()
		chunks := make([]Chunk, len(hists))
		for i, h := range hists {
			id := bp.Add()
			bp.Prefill(id, h[:len(h)-feed[i]])
			chunks[i] = Chunk{ID: id, Tokens: h[len(h)-feed[i]:], All: true}
		}
		rows := bp.Pass(chunks)
		if bp.attn < rowParallelWork {
			t.Fatalf("%s: pass attention work %d below rowParallelWork %d: the fan-out never runs", tag("gate"), bp.attn, rowParallelWork)
		}
		r := 0
		for i, h := range hists {
			for j := len(h) - feed[i]; j < len(h); j++ {
				bitsEqual(t, tag("logits"), rows[r], want[i][j])
				r++
			}
			solo, _ := replay(m, h)
			kvEqual(t, tag(fmt.Sprintf("sequence %d KV", i)), bp.seq(chunks[i].ID), solo)
		}
	}
}

// TestBlockFanOutBitwise aims at a pass's phases (layerRows): passes that
// fan out by four-row group on the widest product alone must leave logits
// bitwise equal to the legacy reference and every K/V row and key-pack
// lane bitwise equal to a solo Predictor's, at GOMAXPROCS 1 (serial), 2 and
// 8. The passes are eight decode rows plus an 8-token prompt chunk at the
// serving benchmark's shape (16 rows, exactly at the row gate, with the
// attention work below it); a 30-row chunk at context 0, whose last row
// group is partial; and post-norm blocks with ReLU and Tanh, whose layer
// norms and activation run on row ranges, over a window whose last key
// block is partial. TestAttentionFanOutBitwise opens the attention gate
// too.
func TestBlockFanOutBitwise(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	bench := Config{Vocab: 64, Dim: 64, Layers: 2, Heads: 4, Window: 320, Pos: PosLearned, Act: nn.GELU}
	post := Config{Vocab: 64, Dim: 64, Layers: 2, Heads: 4, Window: 50, Pos: PosSinusoidal, PostNorm: true}
	relu, tanh := post, post
	relu.Act, tanh.Act = nn.ReLU, nn.Tanh
	for _, tc := range []struct {
		name  string
		cfg   Config
		hists [][2]int // per sequence: history length, of which the last k go into the pass
	}{
		{"8 decode rows + an 8-token chunk", bench, [][2]int{{9, 1}, {14, 1}, {17, 1}, {23, 1}, {30, 1}, {33, 1}, {40, 1}, {41, 1}, {8, 8}}},
		{"30-row chunk at context 0", bench, [][2]int{{30, 30}}},
		{"post-norm ReLU", relu, [][2]int{{47, 1}, {50, 30}}},
		{"post-norm Tanh", tanh, [][2]int{{16, 1}, {49, 3}, {50, 29}}},
	} {
		m := MustNew(tc.cfg, mathx.NewRNG(41))
		rng := mathx.NewRNG(42)
		hists := make([][]int, len(tc.hists))
		want := make([][][]float64, len(tc.hists))
		for i, h := range tc.hists {
			hists[i] = randTokens(rng, h[0], tc.cfg.Vocab)
			slow := newLegacyPredictor(m)
			for _, tok := range hists[i] {
				want[i] = append(want[i], slow.Append(tok))
			}
		}
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			tag := func(s string) string { return fmt.Sprintf("%s, GOMAXPROCS %d: %s", tc.name, procs, s) }
			bp := m.NewBatchedPredictor()
			chunks := make([]Chunk, len(hists))
			for i, h := range hists {
				id := bp.Add()
				if k := tc.hists[i][1]; k < len(h) {
					bp.Prefill(id, h[:len(h)-k])
				}
				chunks[i] = Chunk{ID: id, Tokens: h[len(h)-tc.hists[i][1]:], All: true}
			}
			got := bp.Pass(chunks)
			if procs > 1 && (!rowFanOut(m.Cfg, len(bp.rows)) || parallelRows(m.Cfg.Heads, bp.attn)) {
				t.Fatalf("%s: row-phase gate %v, head gate %v", tag("gates"), rowFanOut(m.Cfg, len(bp.rows)), parallelRows(m.Cfg.Heads, bp.attn))
			}
			r := 0
			for i, h := range hists {
				for j := len(h) - tc.hists[i][1]; j < len(h); j++ {
					bitsEqual(t, tag("logits"), got[r], want[i][j])
					r++
				}
				solo, _ := replay(m, h)
				kvEqual(t, tag(fmt.Sprintf("sequence %d KV", i)), bp.seq(chunks[i].ID), solo)
			}
		}
	}
}

// TestConcurrentPassesFanOutBitwise runs fanned-out passes on two
// BatchedPredictors at once, as a worker process's serve loops do, so both
// share rowParallel's helpers: each 40-row chunk opens both gates (the
// widest product and the attention work), and each sequence must still end
// with logits and every K/V row and key-pack lane bitwise equal to a solo
// Predictor's, at GOMAXPROCS 2 and 8.
func TestConcurrentPassesFanOutBitwise(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := Config{Vocab: 64, Dim: 64, Layers: 2, Heads: 4, Window: 320, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(51))
	rng := mathx.NewRNG(52)
	hists := make([][]int, 2)
	solos := make([]*Predictor, len(hists))
	want := make([][]float64, len(hists))
	for i := range hists {
		hists[i] = randTokens(rng, 240, cfg.Vocab)
		solos[i], want[i] = replay(m, hists[i])
	}
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		bps := make([]*BatchedPredictor, len(hists))
		ids := make([]int, len(hists))
		got := make([][]float64, len(hists))
		for i := range bps {
			bps[i] = m.NewBatchedPredictor()
			ids[i] = bps[i].Add()
			bps[i].Prefill(ids[i], hists[i][:120])
		}
		var wg sync.WaitGroup
		for i := range bps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for at := 120; at < 240; at += 40 {
					got[i] = bps[i].Prefill(ids[i], hists[i][at:at+40])
				}
			}(i)
		}
		wg.Wait()
		for i, bp := range bps {
			tag := fmt.Sprintf("GOMAXPROCS %d, sequence %d", procs, i)
			if !rowFanOut(m.Cfg, len(bp.rows)) || !parallelRows(cfg.Heads, bp.attn) {
				t.Fatalf("%s: a 40-row chunk at context 200 does not open both fan-outs", tag)
			}
			bitsEqual(t, tag+": logits", got[i], want[i])
			kvEqual(t, tag+": KV", bp.seq(ids[i]), solos[i])
		}
	}
}

// TestAttentionQuadsBitwise aims at attendRows' runs: rows of one state
// adjacent in a range are scored and value-summed four, two or one at a
// time, and every run must leave logits bitwise equal to the legacy
// reference and every K/V row and key-pack lane bitwise equal to a solo
// Predictor's, at GOMAXPROCS 1 (serial, whole chunks are runs), 2 and 8
// (four-row groups cut the runs). The passes hold chunks of one to four
// rows, whose runs are 1, 2, 3 (a pair and a single) and 4 rows long;
// chunks starting at positions 13, 14 and 15, whose runs straddle a 16-key
// block, with decode rows between them; and a 64-row chunk beside eight
// decode rows, the widest pass the serving loop makes at its defaults.
// Each pass runs with sixteen-wide heads (the fused value sum), eight- and
// thirty-two-wide ones and the sparse mask (per-row value sums).
func TestAttentionQuadsBitwise(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	base := Config{Vocab: 64, Dim: 64, Layers: 2, Heads: 4, Window: 150, Pos: PosLearned, Act: nn.GELU}
	hd8, hd32, sparse := base, base, base
	hd8.Heads, hd32.Heads, sparse.SparseStride = 8, 2, 5
	passes := []struct {
		name  string
		hists [][2]int // per sequence: history length, of which the last k go into the pass
	}{
		{"runs of one to four rows", [][2]int{{40, 4}, {21, 1}, {33, 3}, {18, 2}, {52, 2}, {9, 1}, {27, 3}, {46, 1}, {60, 4}, {4, 4}, {35, 1}}},
		{"chunks at 13, 14 and 15 between decode rows", [][2]int{{18, 5}, {30, 1}, {21, 7}, {45, 1}, {21, 6}, {50, 1}}},
		{"8 decode rows + a 64-row chunk", [][2]int{{41, 1}, {17, 1}, {66, 1}, {29, 1}, {80, 1}, {33, 1}, {48, 1}, {16, 1}, {104, 64}}},
	}
	for _, cfg := range []Config{base, hd8, hd32, sparse} {
		m := MustNew(cfg, mathx.NewRNG(61))
		rng := mathx.NewRNG(62)
		for _, pass := range passes {
			hists := make([][]int, len(pass.hists))
			want := make([][][]float64, len(pass.hists))
			solos := make([]*Predictor, len(pass.hists))
			for i, h := range pass.hists {
				hists[i] = randTokens(rng, h[0], cfg.Vocab)
				slow := newLegacyPredictor(m)
				for _, tok := range hists[i] {
					want[i] = append(want[i], slow.Append(tok))
				}
				solos[i], _ = replay(m, hists[i])
			}
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				tag := func(s string) string {
					return fmt.Sprintf("head dim %d, stride %d, %s, GOMAXPROCS %d: %s",
						cfg.Dim/cfg.Heads, cfg.SparseStride, pass.name, procs, s)
				}
				bp := m.NewBatchedPredictor()
				chunks := make([]Chunk, len(hists))
				for i, h := range hists {
					id := bp.Add()
					if k := pass.hists[i][1]; k < len(h) {
						bp.Prefill(id, h[:len(h)-k])
					}
					chunks[i] = Chunk{ID: id, Tokens: h[len(h)-pass.hists[i][1]:], All: true}
				}
				got := bp.Pass(chunks)
				if procs > 1 && !rowFanOut(m.Cfg, len(bp.rows)) {
					t.Fatalf("%s: a %d-row pass does not fan out", tag("gate"), len(bp.rows))
				}
				r := 0
				for i, h := range hists {
					for j := len(h) - pass.hists[i][1]; j < len(h); j++ {
						bitsEqual(t, tag(fmt.Sprintf("sequence %d position %d logits", i, j)), got[r], want[i][j])
						r++
					}
					kvEqual(t, tag(fmt.Sprintf("sequence %d KV", i)), bp.seq(chunks[i].ID), solos[i])
				}
			}
		}
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
