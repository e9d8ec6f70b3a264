package transformer

import (
	"testing"

	"repro/internal/mathx"
	"repro/internal/nn"
)

// This file fuzzes KV rewind: BatchedPredictor.Rewind must be
// indistinguishable from never having fed the discarded tokens. The shadow
// in every test is a predictor rebuilt by Append-only replay of the
// surviving history — the reference semantics Rewind claims to preserve
// without clearing any KV rows or key-pack lanes.

// randRewindConfig draws a model shape for the rewind property tests,
// covering the same axes as TestExtendProperty: head widths at and off the
// sixteen-lane pack size, pre/post-norm, dense and sparse attention, all
// positional schemes, windows that cross several sixteen-row pack blocks.
func randRewindConfig(rng *mathx.RNG) Config {
	heads := 1 + rng.Intn(3)
	hd := []int{4, 8, 12, 16, 20}[rng.Intn(5)]
	cfg := Config{
		Vocab:  11 + rng.Intn(40),
		Dim:    heads * hd,
		Hidden: 8 + rng.Intn(64),
		Layers: 1 + rng.Intn(2),
		Heads:  heads,
		Window: 18 + rng.Intn(46),
		Pos:    []PosKind{PosSinusoidal, PosLearned, PosNone}[rng.Intn(3)],
		Act:    []nn.Activation{nn.ReLU, nn.Tanh, nn.GELU}[rng.Intn(3)],
	}
	if rng.Intn(4) == 0 {
		cfg.PostNorm = true
	}
	if rng.Intn(5) == 0 {
		cfg.SparseStride = 2 + rng.Intn(3)
	}
	return cfg
}

// TestBatchedRewindProperty is the BatchedPredictor form: two sequences
// advance through random Step/Prefill/all-rows Pass/Rewind interleavings while
// each is shadowed by a solo Predictor given the same net history. Rewinding
// one sequence must leave the other bit-identical, and every logits row must
// match the solo path.
func TestBatchedRewindProperty(t *testing.T) {
	rng := mathx.NewRNG(2470)
	for trial := 0; trial < 12; trial++ {
		cfg := randRewindConfig(rng)
		m := MustNew(cfg, mathx.NewRNG(uint64(trial)*29+5))
		bp := m.NewBatchedPredictor()
		ids := []int{bp.Add(), bp.Add()}
		hists := make([][]int, 2)
		rebuilt := func(si int) []float64 {
			sh := m.NewPredictor()
			var last []float64
			for _, id := range hists[si] {
				last = sh.Append(id)
			}
			return last
		}
		// Seed both sequences so Step (which feeds every listed sequence) has
		// room to compare rows.
		for si := range ids {
			tok := rng.Intn(cfg.Vocab)
			hists[si] = append(hists[si], tok)
			rows := bp.Pass([]Chunk{{ID: ids[si], Tokens: []int{tok}, All: true}})
			bitsEqual(t, "batched/seed", rows[0], rebuilt(si))
		}
		for op := 0; op < 20; op++ {
			si := rng.Intn(2)
			room := cfg.Window - bp.Len(ids[si])
			switch {
			case rng.Intn(3) == 0 && bp.Len(ids[si]) > 1:
				n := 1 + rng.Intn(bp.Len(ids[si])-1)
				bp.Rewind(ids[si], n)
				hists[si] = hists[si][:len(hists[si])-n]
				// The untouched sequence must still match its shadow.
				other := 1 - si
				if bp.Len(ids[other]) < cfg.Window {
					tok := rng.Intn(cfg.Vocab)
					hists[other] = append(hists[other], tok)
					got := bp.Step([]int{ids[other]}, []int{tok})
					bitsEqual(t, "batched/other-after-rewind", got[0], rebuilt(other))
				}
			case room == 0:
				n := 1 + rng.Intn(bp.Len(ids[si])-1)
				bp.Rewind(ids[si], n)
				hists[si] = hists[si][:len(hists[si])-n]
			case rng.Intn(2) == 0 && bp.Len(ids[1-si]) < cfg.Window:
				// Full-batch step: both sequences advance one token.
				toks := []int{rng.Intn(cfg.Vocab), rng.Intn(cfg.Vocab)}
				hists[0] = append(hists[0], toks[0])
				hists[1] = append(hists[1], toks[1])
				rows := bp.Step(ids, toks)
				bitsEqual(t, "batched/step0", rows[0], rebuilt(0))
				bitsEqual(t, "batched/step1", rows[1], rebuilt(1))
			default:
				n := 1 + rng.Intn(room)
				chunk := make([]int, n)
				for i := range chunk {
					chunk[i] = rng.Intn(cfg.Vocab)
				}
				if rng.Intn(2) == 0 {
					got := bp.Prefill(ids[si], chunk)
					hists[si] = append(hists[si], chunk...)
					bitsEqual(t, "batched/prefill", got, rebuilt(si))
				} else {
					rows := bp.Pass([]Chunk{{ID: ids[si], Tokens: chunk, All: true}})
					sh := m.NewPredictor()
					for _, id := range hists[si] {
						sh.Append(id)
					}
					for r, id := range chunk {
						bitsEqual(t, "batched/pass-all", rows[r], sh.Append(id))
					}
					hists[si] = append(hists[si], chunk...)
				}
			}
		}
	}
}

// TestRewindBounds pins the panic contract: negative counts and counts past
// the cached length must refuse rather than corrupt.
func TestRewindBounds(t *testing.T) {
	cfg := Config{Vocab: 7, Dim: 8, Layers: 1, Heads: 2, Window: 18, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(1))
	bp := m.NewBatchedPredictor()
	id := bp.Add()
	bp.Prefill(id, []int{1, 2})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BatchedPredictor.Rewind past length: no panic")
			}
		}()
		bp.Rewind(id, 3)
	}()
	bp.Rewind(id, 2)
	if bp.Len(id) != 0 {
		t.Fatalf("batched Len after full rewind = %d", bp.Len(id))
	}
}
