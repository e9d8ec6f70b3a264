// Package lm defines the backend-agnostic language-model contract behind
// the unified generation API: any model that can encode a prompt, step one
// token at a time, and decode ids back to text plugs into the same
// generation, streaming, serving, and evaluation machinery. core.LLM (the
// transformer pipeline) satisfies it directly; the §5 ladder substrates —
// n-gram, FFN-LM, RNN/LSTM — are adapted by pairing them with a tokenizer
// (see adapters.go). The Gen and Stream drivers here are the reference
// single-sequence decoding loop: for a fixed (model, prompt, options) they
// produce output bitwise identical to the batched serving path.
package lm

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/mathx"
	"repro/internal/sample"
	"repro/internal/tokenizer"
)

// LanguageModel is the encode/step/decode contract every generation entry
// point (direct calls, llm.Server, the eval harness, the CLIs) accepts.
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
// With the same options and seed it reproduces core.LLM's classic Generate
// exactly.
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
	return StreamOptions(ctx, m, prompt, onToken, sample.BuildOptions(opts...))
}

// StreamOptions is Stream with an already-built options struct — the entry
// point for callers (like the serving loops) that hold request state in
// struct form.
func StreamOptions(ctx context.Context, m LanguageModel, prompt string, onToken func(sample.Token) error, o sample.Options) (Result, error) {
	if o.Strategy == nil {
		o.Strategy = sample.Greedy{}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if o.MaxTokens <= 0 {
		return Result{}, fmt.Errorf("lm: MaxTokens %d must be positive", o.MaxTokens)
	}
	// A windowed model cannot hold even one prompt token plus the budget;
	// reject rather than letting the stepper exhaust its window mid-run.
	if w := m.ContextWindow(); w > 0 && o.MaxTokens >= w {
		return Result{}, fmt.Errorf("lm: MaxTokens %d must be below the model window %d", o.MaxTokens, w)
	}
	ids, err := m.EncodePrompt(prompt, o.MaxTokens)
	if err != nil {
		return Result{}, err
	}
	st := m.NewStepper()
	var logits []float64
	if ex, ok := st.(sample.Extender); ok {
		// Chunked prefill: the whole prompt in one matrix-matrix pass,
		// bitwise identical to the per-token loop below. Cancellation is
		// checked once up front; serving deployments that need bounded
		// cancellation latency chunk at the scheduling layer (see
		// serve.Config.PrefillChunk).
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
	stop := -1
	if o.StopAtEOS {
		stop = tokenizer.EOS
	}
	dec := sample.NewDecoder(o.Strategy, stop, o.MaxTokens, mathx.NewRNG(o.Seed+977))
	pd := NewPieceDecoder(m.Decode)
	if o.Speculative != nil {
		if tgt, ok := st.(sample.SpecTarget); ok {
			return streamSpeculative(ctx, m, tgt, dec, pd, ids, logits, onToken, o)
		}
	}
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
// interface: greedy, stop-at-EOS decoding with the harness's fixed seed —
// the same contract core.LLM.Complete implements directly.
type Completer struct{ M LanguageModel }

// Complete implements eval.Generator.
func (c Completer) Complete(prompt string, maxTokens int) string {
	res, err := Gen(c.M, prompt, sample.WithMaxTokens(maxTokens), sample.WithStop())
	if err != nil {
		return ""
	}
	return res.Text
}
