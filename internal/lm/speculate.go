package lm

import (
	"repro/internal/mathx"
	"repro/internal/ngram"
	"repro/internal/sample"
	"repro/internal/tokenizer"
)

// This file is the draft-model side of speculative decoding (lm.Stream
// drives the rounds): Drafter adapters over the cheap §5 substrates and
// self-distillation, which trains an n-gram proposal on text sampled from the
// target model itself, so speculation needs nothing beyond the checkpoint
// being served. Every round keeps a draft only where it equals the token
// plain decoding samples, so for every strategy the emitted stream is
// bitwise the plain loop's.

// NGramDrafter adapts a count-based n-gram model to the speculative draft
// contract: it proposes the argmax of the model's bulk DistInto path
// (longest-observed-order backoff with add-k smoothing inside that order,
// one map probe per order rather than per token — the proposal must be much
// cheaper than one verification row to be worth drafting), ties going to
// the lowest token id. Its distribution buffer is reused across calls, so a
// drafter belongs to one goroutine.
type NGramDrafter struct {
	Model *ngram.Model
	dist  []float64
}

// Draft implements sample.Drafter.
func (d *NGramDrafter) Draft(ctx []int) int {
	if cap(d.dist) < d.Model.Vocab {
		d.dist = make([]float64, d.Model.Vocab)
	}
	d.dist = d.dist[:d.Model.Vocab]
	tok, _ := mathx.ArgMax(d.Model.DistInto(d.dist, ctx))
	return tok
}

// DistillNGram distills an order-N n-gram draft model from m itself: no
// corpus required beyond the checkpoint (self-speculation). The distillation
// walks a temperature-1 sample stream of the given length — temp-1 sampling
// visits the high-probability contexts decoding will actually reach — and at
// every position records (context → argmax of the teacher's logits) into the
// n-gram counts. Training on the teacher's argmax rather than the sampled
// stream is what makes the drafter useful for exact-match verification: for
// any context the walk covered, the drafter's top token IS the teacher's
// greedy pick, so greedy speculation accepts it. Windowed targets are
// re-armed on a short overlapping tail whenever the context fills. The
// returned model is add-k smoothed for readers of its full distribution;
// the drafter proposes only the argmax, which smoothing cannot move (it is
// monotone in the counts, so equal counts stay tied and go to the lowest id).
func DistillNGram(m LanguageModel, order, tokens int, seed uint64) *ngram.Model {
	st := m.NewStepper()
	w := m.ContextWindow()
	rng := mathx.NewRNG(seed)
	strat := sample.Temperature{T: 1}
	stream := make([]int, 0, tokens)
	stream = append(stream, tokenizer.EOS)
	logits := st.Append(tokenizer.EOS)
	vocab := len(logits)
	g := ngram.New(order, vocab)
	g.AddK = 0.05
	n := 1
	for len(stream) < tokens {
		top, _ := mathx.ArgMax(logits)
		g.Observe(stream, top)
		tok := strat.Pick(logits, rng)
		stream = append(stream, tok)
		if len(stream) >= tokens {
			break
		}
		if w > 0 && n+1 >= w {
			// Window nearly full: restart on the last order tokens so the
			// highest-order contexts stay continuous across the seam.
			st = m.NewStepper()
			n = 0
			lo := len(stream) - 1 - order
			if lo < 0 {
				lo = 0
			}
			tail := stream[lo : len(stream)-1]
			for _, id := range tail {
				st.Append(id)
				n++
			}
		}
		logits = st.Append(tok)
		n++
	}
	return g
}

// DistillDrafter is DistillNGram packaged as a ready-to-use Drafter — the
// one-call constructor the CLIs and the serving front end use.
func DistillDrafter(m LanguageModel, order, tokens int, seed uint64) sample.Drafter {
	return &NGramDrafter{Model: DistillNGram(m, order, tokens, seed)}
}
