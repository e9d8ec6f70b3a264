package transformer

import (
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// packedMat is one projection compiled for inference: the weight matrix
// transposed to output-major and then packed sixteen output rows at a time
// into the element-interleaved layout mathx.DotInterleaved16 consumes
// (block b stores rows 16b..16b+15; within a block, element i of all
// sixteen rows is contiguous). When rows is not a multiple of sixteen, the
// last block's missing rows are zeros, and their lanes are computed and
// dropped. Every output accumulates in ascending input order, so a packed
// product is bitwise identical to the training-layout loop it replaces.
type packedMat struct {
	rows, cols int
	blocks     []float64 // ⌈rows/16⌉·cols·16 interleaved elements
}

// packMat compiles wT (an output-major, i.e. already transposed, weight
// matrix) into the interleaved block layout.
func packMat(wT *tensor.Tensor) *packedMat {
	rows, cols := wT.Shape[0], wT.Shape[1]
	nb := (rows + 15) / 16
	pm := &packedMat{rows: rows, cols: cols, blocks: make([]float64, nb*cols*16)}
	for b := 0; b < nb; b++ {
		seg := pm.blocks[b*cols*16 : (b+1)*cols*16]
		for k := 0; k < 16 && b*16+k < rows; k++ {
			row := wT.Row(b*16 + k)
			for i, v := range row {
				seg[i*16+k] = v
			}
		}
	}
	return pm
}

// matMat writes wT·x_r into row r of dst for every row r in [lo, hi) of xs
// (dst has pm.rows columns, xs has pm.cols), sixteen outputs per kernel
// call. Weight blocks form the outer loop and rows the inner loop, so each
// packed block is streamed from memory once per four-row group instead of
// once per row — the locality that makes chunked prefill and the
// cross-sequence decode step matrix-matrix operations. Rows are processed
// four per weight stream through the fused X4 kernel (then two, then one
// for the remainder). Per row and lane the arithmetic is one ascending
// accumulation whatever the grouping, so results are bitwise identical at
// any row range. The sweep is serial: a large pass fans out one level up,
// by four-row group across the phases of a pass (layerRows), and writes
// only rows [lo, hi) of dst.
func (pm *packedMat) matMat(dst, xs *tensor.Tensor, lo, hi int) {
	var tmp [4][16]float64
	for b := 0; b*16 < pm.rows; b++ {
		pm.matMatBlock(b, dst, xs, lo, hi, &tmp)
	}
}

// matMatBlock runs one packed weight block over rows [lo, hi) of xs, four
// rows per weight stream, then two, then one. A full block's kernels write
// straight into dst; the last, partial block's write sixteen lanes into
// tmp, whose live lanes are copied out.
func (pm *packedMat) matMatBlock(b int, dst, xs *tensor.Tensor, lo, hi int, tmp *[4][16]float64) {
	blk := pm.blocks[b*pm.cols*16 : (b+1)*pm.cols*16]
	c0, c1 := b*16, min(b*16+16, pm.rows)
	out := func(k, r int) *[16]float64 {
		if c1-c0 < 16 {
			return &tmp[k]
		}
		return (*[16]float64)(dst.Row(r)[c0:c1])
	}
	flush := func(r, rows int) {
		if c1-c0 < 16 {
			for k := 0; k < rows; k++ {
				copy(dst.Row(r + k)[c0:c1], tmp[k][:])
			}
		}
	}
	r := lo
	for ; r+4 <= hi; r += 4 {
		mathx.DotInterleaved16X4(out(0, r), out(1, r+1), out(2, r+2), out(3, r+3),
			blk, xs.Row(r), xs.Row(r+1), xs.Row(r+2), xs.Row(r+3))
		flush(r, 4)
	}
	for ; r+2 <= hi; r += 2 {
		mathx.DotInterleaved16X2(out(0, r), out(1, r+1), blk, xs.Row(r), xs.Row(r+1))
		flush(r, 2)
	}
	for ; r < hi; r++ {
		mathx.DotInterleaved16(out(0, r), blk, xs.Row(r))
		flush(r, 1)
	}
}

// compiledLayer is one block's weights packed for inference. The Q/K/V
// projections of all heads are stacked into one Dim-output matrix each,
// rows grouped head-major: output h·hd+r is output r of head h, so a single
// packed sweep produces the concatenated per-head vectors the attention
// step consumes.
type compiledLayer struct {
	wq, wk, wv *packedMat // Dim outputs each, head-stacked
	wo         *packedMat // Dim outputs
	ffnIn      *packedMat // Hidden outputs
	ffnOut     *packedMat // Dim outputs
	ffnInB     []float64  // views of the live bias tensors
	ffnOutB    []float64
}

// compiledModel is the inference-compiled view of a Model: packed projection
// layouts for every block plus the unembedding. Biases and layer-norm
// parameters are aliased, not copied — only matrix layouts change.
type compiledModel struct {
	layers []compiledLayer
	out    *packedMat // Vocab outputs
	outB   []float64
}

// compile returns the packed inference view of m's weights, building it on
// first use and sharing it across predictors (serving creates a predictor
// per request; repacking identical weights each time would dominate short
// generations). The view snapshots the matrix weights: training through
// train.Run invalidates the cache (see InvalidateCompiled), so predictors
// built after a run see the trained weights, while predictors built before
// keep decoding against the weights they were compiled from. Code that
// mutates weight tensors directly must call InvalidateCompiled itself.
func (m *Model) compile() *compiledModel {
	m.compiledMu.Lock()
	defer m.compiledMu.Unlock()
	if m.compiledCache == nil {
		m.compiledCache = m.buildCompiled()
	}
	return m.compiledCache
}

// InvalidateCompiled drops the cached inference view; the next predictor
// re-packs the current weights. train.Run calls it after every run.
func (m *Model) InvalidateCompiled() {
	m.compiledMu.Lock()
	m.compiledCache = nil
	m.compiledMu.Unlock()
}

// buildCompiled packs every weight matrix for the decode fast path.
func (m *Model) buildCompiled() *compiledModel {
	hd := m.Cfg.Dim / m.Cfg.Heads
	c := &compiledModel{
		layers: make([]compiledLayer, len(m.Blocks)),
		out:    packMat(tensor.TransposePack(m.Output.W.Value)),
		outB:   m.Output.B.Value.Row(0),
	}
	for li, b := range m.Blocks {
		cl := &c.layers[li]
		cl.wq = packMat(packHeads(b.Attn.heads, hd, m.Cfg.Dim, func(h *head) *nn.Linear { return h.Wq }))
		cl.wk = packMat(packHeads(b.Attn.heads, hd, m.Cfg.Dim, func(h *head) *nn.Linear { return h.Wk }))
		cl.wv = packMat(packHeads(b.Attn.heads, hd, m.Cfg.Dim, func(h *head) *nn.Linear { return h.Wv }))
		cl.wo = packMat(tensor.TransposePack(b.Attn.Wo.W.Value))
		cl.ffnIn = packMat(tensor.TransposePack(b.FFN.In.W.Value))
		cl.ffnOut = packMat(tensor.TransposePack(b.FFN.Out.W.Value))
		cl.ffnInB = b.FFN.In.B.Value.Row(0)
		cl.ffnOutB = b.FFN.Out.B.Value.Row(0)
	}
	return c
}

// packHeads stacks the transposed per-head projection matrices (each Dim×hd
// in training layout) into one (heads·hd)×Dim matrix, head-major.
func packHeads(heads []*head, hd, dim int, pick func(*head) *nn.Linear) *tensor.Tensor {
	out := tensor.New(len(heads)*hd, dim)
	for hi, h := range heads {
		t := tensor.TransposePack(pick(h).W.Value)
		copy(out.Data[hi*hd*dim:(hi+1)*hd*dim], t.Data)
	}
	return out
}
