// Package lm defines the backend-agnostic language-model contract behind
// the unified generation API: any model that can encode a prompt, step one
// token at a time, and decode ids back to text plugs into the same
// generation, streaming and evaluation machinery. core.LLM (the transformer
// pipeline, the one model serve batches) satisfies it directly; the §5
// ladder substrates — n-gram, FFN-LM, RNN/LSTM — are adapted by pairing
// them with a tokenizer (see adapters.go). Stream here is the repository's one single-sequence
// decoding loop, and Gen (Stream without a callback) is its oracle: for a
// fixed (model, prompt, options) the batched serving path, the benchmark and
// the goldens all produce or check exactly Gen's tokens.
package lm

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/mathx"
	"repro/internal/sample"
	"repro/internal/tokenizer"
)

// LanguageModel is the encode/step/decode contract every single-sequence
// generation entry point (direct calls, the eval harness, llm-generate)
// accepts.
type LanguageModel interface {
	// EncodePrompt tokenizes prompt, reserving budget tokens of generation
	// room within any finite context the model has. It errors when the
	// prompt encodes to no tokens.
	EncodePrompt(prompt string, budget int) ([]int, error)
	// Decode maps token ids back to text (special tokens dropped).
	Decode(ids []int) string
	// NewStepper returns fresh per-sequence decoding state: each Append
	// consumes one token and yields next-token logits.
	NewStepper() sample.Stepper
	// ContextWindow returns the model's total sequence capacity, or 0 when
	// unbounded (n-gram, recurrent and fixed-window models).
	ContextWindow() int
}

// Result is a finished generation.
type Result struct {
	Text   string
	Tokens []int
}

// Gen runs one generation over any LanguageModel with the unified options.
// It is the repository's oracle: for the same model, prompt, options and
// seed, every serving path returns exactly its tokens.
func Gen(m LanguageModel, prompt string, opts ...sample.Option) (Result, error) {
	return Stream(context.Background(), m, prompt, nil, opts...)
}

// Stream is Gen with per-token delivery: onToken (when non-nil) is invoked
// for every sampled token, in order, with its decoded text piece; the
// concatenation of the pieces equals the final Result.Text. A non-nil error
// from onToken, or ctx cancellation, aborts the generation. Cancellation is
// checked between decode steps; during prompt prefill it is checked once up
// front on the chunked fast path (models whose stepper is a sample.Extender
// ingest the whole prompt in one pass) and between tokens on the per-token
// path — serving deployments needing bounded mid-prefill cancellation
// latency chunk at the scheduling layer (serve.Config.PrefillChunk).
func Stream(ctx context.Context, m LanguageModel, prompt string, onToken func(sample.Token) error, opts ...sample.Option) (Result, error) {
	o := sample.BuildOptions(opts...)
	if ctx == nil {
		ctx = context.Background()
	}
	if err := Check(o, m.ContextWindow()); err != nil {
		return Result{}, err
	}
	ids, err := m.EncodePrompt(prompt, o.MaxTokens)
	if err != nil {
		return Result{}, err
	}
	st := m.NewStepper()
	var logits []float64
	if ex, ok := st.(sample.Extender); ok {
		// Chunked prefill: the whole prompt in one matrix-matrix pass,
		// bitwise identical to the per-token loop below.
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		logits = ex.Extend(ids)
	} else {
		for _, id := range ids {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
			logits = st.Append(id)
		}
	}
	dec := NewDecoder(o)
	pd := NewPieceDecoder(m.Decode)
	for !dec.Done() {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		tok, done := dec.Next(logits)
		if onToken != nil {
			if err := onToken(pd.Next(tok)); err != nil {
				return Result{}, err
			}
		}
		if !done {
			logits = st.Append(tok)
		}
	}
	return Finish(m, dec.Tokens(), o), nil
}

// Check is the request rule of every decoding loop, this one and the
// batched server's admission: a budget in [1, window] (0 = unbounded) and
// a valid strategy. The last sampled token is never fed, so a budget equal
// to the window fits.
func Check(o sample.Options, window int) error {
	if o.MaxTokens <= 0 {
		return fmt.Errorf("lm: MaxTokens %d must be positive", o.MaxTokens)
	}
	if window > 0 && o.MaxTokens > window {
		return fmt.Errorf("lm: MaxTokens %d exceeds the model window %d", o.MaxTokens, window)
	}
	if err := sample.ValidateStrategy(o.Strategy); err != nil {
		return fmt.Errorf("lm: %w", err)
	}
	return nil
}

// NewDecoder is the sampler of every decoding loop, this one and the
// batched server's: greedy for a nil strategy, stopping at EOS when asked,
// its RNG seeded from Seed+977.
func NewDecoder(o sample.Options) *sample.Decoder {
	strat := o.Strategy
	if strat == nil {
		strat = sample.Greedy{}
	}
	stop := -1
	if o.StopAtEOS {
		stop = tokenizer.EOS
	}
	return sample.NewDecoder(strat, stop, o.MaxTokens, mathx.NewRNG(o.Seed+977))
}

// Finish applies the options' post-processing (EOS trimming) and decodes
// the final text — shared by this driver and the batched server so both
// produce identical results.
func Finish(m LanguageModel, toks []int, o sample.Options) Result {
	if o.StopAtEOS && len(toks) > 0 && toks[len(toks)-1] == tokenizer.EOS {
		toks = toks[:len(toks)-1]
	}
	return Result{Text: m.Decode(toks), Tokens: toks}
}

// PieceDecoder turns a stream of sampled token ids into incremental text
// pieces whose concatenation equals the decode of the whole sequence. It
// re-decodes the full prefix each step (cheap at interactive scales) and
// diffs against the previous decode, which handles tokenizers that join
// with separators or drop special tokens.
type PieceDecoder struct {
	decode func([]int) string
	toks   []int
	prev   string
	n      int
}

// NewPieceDecoder builds a piece decoder over a Decode function.
func NewPieceDecoder(decode func([]int) string) *PieceDecoder {
	return &PieceDecoder{decode: decode}
}

// Next records one sampled token and returns its stream event.
func (d *PieceDecoder) Next(id int) sample.Token {
	d.toks = append(d.toks, id)
	full := d.decode(d.toks)
	piece := full
	if strings.HasPrefix(full, d.prev) {
		piece = full[len(d.prev):]
	}
	d.prev = full
	ev := sample.Token{Index: d.n, ID: id, Text: piece}
	d.n++
	return ev
}

// Completer adapts a LanguageModel to the eval harness's Generator
// interface: greedy, stop-at-EOS decoding (core.LLM.Complete is this over
// the transformer pipeline).
type Completer struct{ M LanguageModel }

// Complete implements eval.Generator.
func (c Completer) Complete(prompt string, maxTokens int) string {
	res, err := Gen(c.M, prompt, sample.WithMaxTokens(maxTokens), sample.WithStop())
	if err != nil {
		return ""
	}
	return res.Text
}
