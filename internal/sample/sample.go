// Package sample implements autoregressive decoding (§3's "practical method
// for sampling from the distribution"): the Eq. 8 Boltzmann/temperature
// softmax over logits, greedy decoding (its β → ∞ limit), top-k and nucleus
// truncation, and beam search.
package sample

import (
	"math"
	"sort"

	"repro/internal/mathx"
)

// Stepper is a stateful next-token scorer: each Append consumes one token
// and returns logits for the next position. transformer.Predictor and an
// rnn.Model wrapped with StepperFunc both satisfy it.
type Stepper interface {
	Append(id int) []float64
}

// StepperFunc adapts a closure to Stepper.
type StepperFunc func(id int) []float64

// Append implements Stepper.
func (f StepperFunc) Append(id int) []float64 { return f(id) }

// Extender is a Stepper that can ingest a whole token chunk in one pass:
// Extend feeds ids in order and returns the logits after the last one,
// bitwise identical to len(ids) Append calls, but as batched matrix work
// (transformer.Predictor implements it; see its documentation for the
// keep-last window-truncation behavior). The generation drivers type-assert
// for it so prompt prefill takes the fast path on models that provide one.
type Extender interface {
	Stepper
	Extend(ids []int) []float64
}

// Strategy picks the next token from logits.
type Strategy interface {
	Pick(logits []float64, rng *mathx.RNG) int
}

// Greedy always takes the argmax — the β → ∞ limit of Eq. 8.
type Greedy struct{}

// Pick implements Strategy.
func (Greedy) Pick(logits []float64, _ *mathx.RNG) int {
	i, _ := mathx.ArgMax(logits)
	return i
}

// Temperature samples from softmax(logits / T) (Eq. 8 with β = 1/T).
// T must be > 0.
type Temperature struct{ T float64 }

// Pick implements Strategy.
func (s Temperature) Pick(logits []float64, rng *mathx.RNG) int {
	return s.pickScratch(logits, rng, &pickScratch{})
}

func (s Temperature) pickScratch(logits []float64, rng *mathx.RNG, sc *pickScratch) int {
	if s.T <= 0 {
		panic("sample: temperature must be positive (use Greedy for T→0)")
	}
	probs := sc.floats(&sc.probs, len(logits))
	return rng.Categorical(mathx.SoftmaxInto(probs, logits, 1/s.T))
}

// TopK samples at temperature T from only the K highest-logit tokens,
// selected by partial heap selection rather than a full-vocabulary sort
// (identical result, including tie order).
type TopK struct {
	K int
	T float64
}

// Pick implements Strategy.
func (s TopK) Pick(logits []float64, rng *mathx.RNG) int {
	return s.pickScratch(logits, rng, &pickScratch{})
}

func (s TopK) pickScratch(logits []float64, rng *mathx.RNG, sc *pickScratch) int {
	k := s.K
	if k <= 0 || k > len(logits) {
		k = len(logits)
	}
	idx := selectTopK(logits, k, sc)
	sub := sc.floats(&sc.sub, k)
	for i, j := range idx {
		sub[i] = logits[j]
	}
	t := s.T
	if t <= 0 {
		t = 1
	}
	return idx[rng.Categorical(mathx.SoftmaxInto(sub, sub, 1/t))]
}

// TopP (nucleus) samples from the smallest set of tokens whose softmax
// probability mass reaches P, found by popping a max-heap until the mass
// condition holds rather than sorting the full vocabulary (identical
// result: same selection, same tie order, same cumulative sums).
type TopP struct {
	P float64
	T float64
}

// Pick implements Strategy.
func (s TopP) Pick(logits []float64, rng *mathx.RNG) int {
	return s.pickScratch(logits, rng, &pickScratch{})
}

func (s TopP) pickScratch(logits []float64, rng *mathx.RNG, sc *pickScratch) int {
	t := s.T
	if t <= 0 {
		t = 1
	}
	probs := mathx.SoftmaxInto(sc.floats(&sc.probs, len(logits)), logits, 1/t)
	idx := selectNucleus(probs, s.P, sc)
	sub := sc.floats(&sc.sub, len(idx))
	for i, j := range idx {
		sub[i] = probs[j]
	}
	return idx[rng.Categorical(sub)]
}

// Decoder is the per-request state of incremental decoding: a sampling
// strategy, its private RNG stream, a stop token, and a token budget. It
// separates "pick the next token from these logits" from the question of
// where the logits come from, so the same decoding logic drives both the
// single-sequence loop (lm.Stream) and the batched serving front end (where
// one batched forward pass produces logits for many decoders at once).
type Decoder struct {
	strat     Strategy
	rng       *mathx.RNG
	stop      int
	remaining int
	done      bool
	out       []int
	// sc is reused across steps by the built-in strategies, so the
	// per-token sampling state (softmax probabilities, selection heap) is
	// allocated once per request instead of once per token.
	sc pickScratch
}

// NewDecoder returns a decoder that samples up to maxTokens tokens with
// strat, stopping early when stop (≥ 0) is produced. A non-positive
// maxTokens yields a decoder that is already done.
func NewDecoder(strat Strategy, stop, maxTokens int, rng *mathx.RNG) *Decoder {
	return &Decoder{strat: strat, rng: rng, stop: stop, remaining: maxTokens, done: maxTokens <= 0}
}

// Next samples one token from logits, records it, and reports whether
// decoding is finished (budget exhausted or stop token emitted). It panics
// when called after completion.
func (d *Decoder) Next(logits []float64) (tok int, done bool) {
	if d.done {
		panic("sample: Decoder.Next after completion")
	}
	if sp, ok := d.strat.(scratchPicker); ok {
		tok = sp.pickScratch(logits, d.rng, &d.sc)
	} else {
		tok = d.strat.Pick(logits, d.rng)
	}
	d.out = append(d.out, tok)
	d.remaining--
	if d.remaining <= 0 || (d.stop >= 0 && tok == d.stop) {
		d.done = true
	}
	return tok, d.done
}

// Done reports whether decoding has finished.
func (d *Decoder) Done() bool { return d.done }

// Tokens returns the tokens sampled so far (including a final stop token).
func (d *Decoder) Tokens() []int { return d.out }

// Beam is one beam-search hypothesis.
type Beam struct {
	Tokens  []int
	LogProb float64
}

// BeamSearch explores width hypotheses using next, a stateless scorer from
// prefix to next-token logits, generating n tokens beyond the prompt. It
// returns hypotheses sorted by total log probability (best first). The
// prompt is not included in the returned token slices.
func BeamSearch(next func(prefix []int) []float64, prompt []int, n, width int) []Beam {
	if width <= 0 {
		width = 1
	}
	beams := []Beam{{}}
	for step := 0; step < n; step++ {
		var cands []Beam
		for _, b := range beams {
			prefix := append(append([]int(nil), prompt...), b.Tokens...)
			logits := next(prefix)
			logp := logSoftmax(logits)
			for tok, lp := range logp {
				cands = append(cands, Beam{
					Tokens:  append(append([]int(nil), b.Tokens...), tok),
					LogProb: b.LogProb + lp,
				})
			}
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].LogProb > cands[j].LogProb })
		if len(cands) > width {
			cands = cands[:width]
		}
		beams = cands
	}
	return beams
}

func logSoftmax(logits []float64) []float64 {
	lse := mathx.LogSumExp(logits)
	out := make([]float64, len(logits))
	for i, v := range logits {
		out[i] = v - lse
	}
	return out
}

// StreamCrossEntropy scores a held-out stream under a stateless next-logits
// scorer: mean NLL of each token given its prefix — Eq. 3 for neural models.
func StreamCrossEntropy(next func(prefix []int) []float64, stream []int) float64 {
	if len(stream) < 2 {
		return 0
	}
	total := 0.0
	for i := 1; i < len(stream); i++ {
		logits := next(stream[:i])
		lp := logSoftmax(logits)
		total -= lp[stream[i]]
	}
	return total / float64(len(stream)-1)
}

// Perplexity is exp(StreamCrossEntropy).
func Perplexity(next func(prefix []int) []float64, stream []int) float64 {
	return math.Exp(StreamCrossEntropy(next, stream))
}
