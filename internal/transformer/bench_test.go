package transformer

import (
	"fmt"
	"testing"

	"repro/internal/autograd"
	"repro/internal/mathx"
	"repro/internal/nn"
)

func benchModel(window int) *Model {
	return MustNew(Config{
		Vocab: 64, Dim: 64, Layers: 2, Heads: 4, Window: window,
		Pos: PosSinusoidal, Act: GELUAct(),
	}, mathx.NewRNG(1))
}

// GELUAct avoids importing nn constants at every call site in benches.
func GELUAct() nn.Activation { return nn.GELU }

// BenchmarkForward measures the training-graph forward pass.
func BenchmarkForward(b *testing.B) {
	m := benchModel(64)
	ids := make([]int, 64)
	rng := mathx.NewRNG(2)
	for i := range ids {
		ids[i] = rng.Intn(64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForwardLogits(ids)
	}
}

// BenchmarkForwardBackward measures one full training step's compute.
func BenchmarkForwardBackward(b *testing.B) {
	m := benchModel(64)
	rng := mathx.NewRNG(3)
	ids := make([]int, 64)
	tgt := make([]int, 64)
	for i := range ids {
		ids[i] = rng.Intn(64)
		tgt[i] = rng.Intn(64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.ZeroGrad(m)
		autograd.Backward(m.Loss(ids, tgt))
	}
}

// BenchmarkPredictorToken measures per-token KV-cache inference cost —
// the E12 contrast with re-running the full window.
func BenchmarkPredictorToken(b *testing.B) {
	m := benchModel(4096)
	rng := mathx.NewRNG(4)
	p := m.NewPredictor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.Len() >= 4000 {
			b.StopTimer()
			p = m.NewPredictor()
			b.StartTimer()
		}
		p.Append(rng.Intn(64))
	}
}

// BenchmarkFullRecompute is the no-cache alternative at a fixed prefix
// length, for comparison with BenchmarkPredictorToken.
func BenchmarkFullRecompute(b *testing.B) {
	m := benchModel(128)
	rng := mathx.NewRNG(5)
	ids := make([]int, 128)
	for i := range ids {
		ids[i] = rng.Intn(64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForwardLogits(ids)
	}
}

// BenchmarkPrefillChunk is the surface behind serve.Config.PrefillChunk's
// default, at the serving benchmark's shape (Dim 64, 2 layers, 4 heads,
// Window 320, Vocab 30). For each chunk size it prefills a 256-token prompt
// from position 0 in chunks of that many rows: "prompt" reports µs per
// prompt token; "beside8" gives every pass of that prompt eight decode rows
// at context 40 as well and reports µs per pass, which is how long a decode
// row waits while a prompt shares its passes. A pass fans out by row group
// once it is wide enough, and pays one hand-off per layer for it, so run it
// at -cpu 1,2: the chunk size moves the per-token cost only where there are
// cores to fan out to (EXPERIMENTS E43).
func BenchmarkPrefillChunk(b *testing.B) {
	m := MustNew(Config{Vocab: 30, Dim: 64, Layers: 2, Heads: 4, Window: 320, Pos: PosLearned, Act: nn.GELU}, mathx.NewRNG(1))
	rng := mathx.NewRNG(2)
	prompt := randTokens(rng, 256, m.Cfg.Vocab)
	for _, rows := range []int{16, 32, 48, 64, 96, 128} {
		for _, decode := range []int{0, 8} {
			name := fmt.Sprintf("prompt/rows=%d", rows)
			if decode > 0 {
				name = fmt.Sprintf("beside%d/rows=%d", decode, rows)
			}
			b.Run(name, func(b *testing.B) {
				bp := m.NewBatchedPredictor()
				chunks := make([]Chunk, decode+1)
				for i := range chunks[:decode] {
					chunks[i] = Chunk{ID: bp.Add(), Tokens: randTokens(rng, 1, m.Cfg.Vocab)}
					bp.Prefill(chunks[i].ID, randTokens(rng, 40, m.Cfg.Vocab))
				}
				passes := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					id := bp.Add()
					for at := 0; at < len(prompt); at += rows {
						chunks[decode] = Chunk{ID: id, Tokens: prompt[at:min(at+rows, len(prompt))]}
						bp.Pass(chunks)
						for _, c := range chunks[:decode] {
							bp.Rewind(c.ID, 1)
						}
						passes++
					}
					bp.Drop(id)
				}
				us := float64(b.Elapsed().Nanoseconds()) / 1e3
				if decode == 0 {
					b.ReportMetric(us/float64(b.N*len(prompt)), "us/tok")
				} else {
					b.ReportMetric(us/float64(passes), "us/pass")
				}
			})
		}
	}
}
