// Package llm is the public API of this repository — a pure-Go, stdlib-only
// reproduction of the systems described in "Large Language Models:
// Principles and Practice" (the LLM tutorial literature: statistical
// language models, the transformer recipe, scaling laws, in-context
// learning, and interpretability probes).
//
// The package re-exports the supported surface of the internal substrates:
//
//   - Pipeline: corpus → tokenizer → transformer → training → sampling
//     (internal/core), with data-parallel training via Config.Workers,
//   - Model configuration (internal/transformer) and sampling strategies
//     (internal/sample),
//   - Server, the request-batching generation service (an alias of
//     internal/serve's Server),
//   - The evaluation harness (internal/eval),
//   - Experiment entry points for the paper's tables and figures
//     (internal/scaling, internal/icl).
//
// Quickstart (see the Example functions for runnable versions):
//
//	lines := llm.SyntheticCorpus(500, 42)
//	model, _, err := llm.Train(lines, llm.DefaultConfig())
//	if err != nil { ... }
//	res, _ := model.Gen("the king",
//		llm.WithMaxTokens(8), llm.WithStrategy(llm.Temperature(0.8)), llm.WithSeed(1))
//
// Generation is one operation parameterized by functional options
// (WithMaxTokens, WithStrategy, WithSeed, WithStop), and every entry point
// accepts the same options: direct calls, streaming, the batched server,
// and any backend behind the LanguageModel interface. Streaming delivers
// per-token events whose pieces concatenate to the exact final text:
//
//	model.Stream(ctx, "the king", func(t llm.Token) error {
//		fmt.Print(t.Text)
//		return nil
//	}, llm.WithMaxTokens(8))
//
// Gen is the one single-sequence decoding loop and the oracle of every other
// path. To serve concurrent traffic, wrap the model in a Server: requests are
// coalesced into batched forward passes, and each completion is bitwise the
// Gen result for the same options:
//
//	srv := llm.NewServer(model, llm.ServerConfig{})
//	defer srv.Close()
//	res, err := srv.Gen(ctx, "the king",
//		llm.WithMaxTokens(8), llm.WithStrategy(llm.Temperature(0.8)), llm.WithSeed(1))
package llm

import (
	"context"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/grammar"
	"repro/internal/lm"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/scaling"
	"repro/internal/serve"
	"repro/internal/train"
	"repro/internal/transformer"
)

// LLM is a trained language model (tokenizer + transformer).
type LLM = core.LLM

// Config assembles pipeline hyperparameters.
type Config = core.Config

// ModelConfig is the transformer architecture configuration (§6 of the
// paper: dimension p, depth D, heads H, window L).
type ModelConfig = transformer.Config

// Tokenizer kinds.
const (
	WordTok = core.WordTok
	CharTok = core.CharTok
	BPETok  = core.BPETok
)

// Positional-embedding kinds.
const (
	PosSinusoidal = transformer.PosSinusoidal
	PosLearned    = transformer.PosLearned
	PosNone       = transformer.PosNone
)

// Activations.
const (
	ReLU = nn.ReLU
	GELU = nn.GELU
	Tanh = nn.Tanh
)

// DefaultConfig returns a laptop-scale pipeline configuration good for the
// examples: word tokenizer, 2-block pre-LN transformer.
func DefaultConfig() Config {
	return Config{
		Tokenizer: WordTok,
		Model: ModelConfig{
			Dim: 32, Layers: 2, Heads: 2, Window: 16,
			Pos: PosLearned, Act: GELU,
		},
		Steps: 400, BatchSize: 4, LR: 0.003, Seed: 7,
	}
}

// Train builds a tokenizer from lines and trains a transformer LM.
// The returned TrainingCurve records per-step loss.
func Train(lines []string, cfg Config) (*LLM, *TrainingCurve, error) {
	model, res, err := core.Train(lines, cfg)
	if err != nil {
		return nil, nil, err
	}
	return model, &TrainingCurve{res: res}, nil
}

// TrainingCurve exposes the recorded optimization trajectory.
type TrainingCurve struct {
	res *train.Result
}

// FinalLoss returns the last training loss.
func (c *TrainingCurve) FinalLoss() float64 { return c.res.FinalTrainLoss() }

// Losses returns the full per-step training-loss slice (one entry per
// optimizer step, in step order).
func (c *TrainingCurve) Losses() []float64 {
	out := make([]float64, len(c.res.Curve))
	for i, rec := range c.res.Curve {
		out[i] = rec.TrainLoss
	}
	return out
}

// Strategy selects how tokens are sampled (Eq. 8 of the paper and its
// truncated variants).
type Strategy = sample.Strategy

// Greedy returns argmax decoding (the β → ∞ limit of Eq. 8).
func Greedy() Strategy { return sample.Greedy{} }

// Temperature returns Boltzmann sampling at temperature t.
func Temperature(t float64) Strategy { return sample.Temperature{T: t} }

// TopK returns top-k sampling at temperature t.
func TopK(k int, t float64) Strategy { return sample.TopK{K: k, T: t} }

// TopP returns nucleus sampling with mass p at temperature t.
func TopP(p, t float64) Strategy { return sample.TopP{P: p, T: t} }

// ParseStrategy resolves a strategy name ("greedy", "temp", "topk", "topp")
// and its numeric knobs into a Strategy with conventional defaults — the
// shared parser of the CLIs and the HTTP front end.
func ParseStrategy(name string, temp, p float64, k int) (Strategy, error) {
	return sample.ParseStrategy(name, temp, p, k)
}

// ---- Unified generation options ----

// GenOption parameterizes one generation; build requests with the With*
// constructors. The same options drive LLM.Gen, LLM.Stream, Server.Gen,
// Server.Stream, and NewGenRequest.
type GenOption = sample.Option

// WithMaxTokens sets the generation budget.
func WithMaxTokens(n int) GenOption { return sample.WithMaxTokens(n) }

// WithStrategy sets the decoding strategy.
func WithStrategy(s Strategy) GenOption { return sample.WithStrategy(s) }

// WithSeed sets the per-request sampling seed.
func WithSeed(seed uint64) GenOption { return sample.WithSeed(seed) }

// WithStop stops decoding at the end-of-sequence separator and trims it.
func WithStop() GenOption { return sample.WithStop() }

// Token is one streamed generation event: the index-th sampled token, its
// vocabulary id, and the decoded text piece it contributes. Concatenating
// the pieces of a generation yields exactly the final text.
type Token = sample.Token

// LanguageModel is the backend-agnostic encode/step/decode contract of the
// generation API: the trained transformer pipeline (*LLM) satisfies it, as
// do the §5 ladder substrates trained via TrainBackend, so Gen, Stream and
// evaluation accept any backend. A Server serves the transformer only.
type LanguageModel = lm.LanguageModel

// Gen runs one generation over any backend with the unified options; for a
// *LLM it is identical to model.Gen.
func Gen(m LanguageModel, prompt string, opts ...GenOption) (GenResult, error) {
	return lm.Gen(m, prompt, opts...)
}

// Stream is Gen with per-token delivery through onToken.
func Stream(ctx context.Context, m LanguageModel, prompt string, onToken func(Token) error, opts ...GenOption) (GenResult, error) {
	return lm.Stream(ctx, m, prompt, onToken, opts...)
}

// TrainBackend trains one non-transformer rung of the §5 model ladder on
// lines and returns it behind the LanguageModel interface. Recognized
// names: "ngram", "ffn" and "rnn"; Train builds the transformer.
func TrainBackend(name string, lines []string, seed uint64) (LanguageModel, error) {
	return lm.TrainBackend(name, lines, seed)
}

// SyntheticCorpus samples n sentences of English-like PCFG text — the
// repository's stand-in for a natural-language corpus.
func SyntheticCorpus(n int, seed uint64) []string {
	return corpus.PCFGText(grammar.TinyEnglish(), n, 10, mathx.NewRNG(seed))
}

// ---- Serving ----

// ServerConfig tunes a Server (serve.Config); the zero value selects
// sensible defaults (batch of 8, 64-token prefill chunks). A batch that forms
// from idle starts at once, and later requests join it at the next iteration
// boundary. PrefillChunk bounds how many prompt rows of a new request share
// each forward pass with the in-flight streams' decode rows, so a long
// prompt never stalls them by more than one chunk. No field changes the
// tokens a completed request gets, only when they are computed.
type ServerConfig = serve.Config

// GenRequest is one generation job for a Server, with per-request sampling
// strategy, seed, token budget, and stop behavior — the struct form of the
// unified generation options.
type GenRequest = serve.Request

// NewGenRequest builds a GenRequest from the unified functional options.
func NewGenRequest(prompt string, opts ...GenOption) GenRequest {
	return serve.NewRequest(prompt, opts...)
}

// GenResult is a finished generation — the same shape whether it came from
// a direct Gen call or through a Server.
type GenResult = serve.Result

// ServerStats is a snapshot of Server throughput counters, including the
// prompt/decode split (PromptTokens vs DecodeTokens) and the histograms of
// prefill chunk sizes and decode batch widths, so prompt ingestion and
// generation are separately observable.
type ServerStats = serve.Stats

// ErrServerClosed is returned for requests submitted to a closed Server.
var ErrServerClosed = serve.ErrClosed

// Server is the batched generation service (serve.Server): concurrent
// requests — Gen, Do, Stream — are coalesced into batched forward passes
// that share each decoding step's matrix work, while every request keeps its
// own sampling parameters and context-cancellation path. Prompts are
// ingested in bounded chunks riding the same forward pass as the decode
// rows. Every completion is bitwise the Gen result for the same request.
// Validate checks a request without submitting it; Stats snapshots the
// counters; Close stops the loop, failing pending requests with
// ErrServerClosed.
type Server = serve.Server

// NewServer starts a generation server over model. Close it when done.
func NewServer(model *LLM, cfg ServerConfig) *Server {
	return serve.New(model, cfg)
}

// Generator is the model interface of the evaluation harness.
type Generator = eval.Generator

// Completer adapts any LanguageModel to the evaluation harness's Generator
// interface (greedy, stop-at-EOS decoding) — *LLM satisfies Generator
// directly, so this is mainly for the non-transformer backends.
func Completer(m LanguageModel) Generator { return lm.Completer{M: m} }

// Task is a named benchmark task.
type Task = eval.Task

// BenchmarkSuite returns the default synthetic task suite (§4's stand-in
// for BIG-bench).
func BenchmarkSuite(seed uint64) []Task {
	return eval.Suite(mathx.NewRNG(seed))
}

// ScoreTask scores exact-match accuracy of g on task with the given number
// of in-context examples per item.
func ScoreTask(g Generator, task Task, shots int, seed uint64) float64 {
	return eval.ScoreTask(g, task, eval.PromptConfig{Shots: shots}, mathx.NewRNG(seed))
}

// Table1 returns the paper's Table 1 rows (published LLM sizes) with the
// 12·D·p² estimate available per row.
func Table1() []scaling.ModelRow { return scaling.Table1() }

// CountParameters returns the exact trainable-parameter count for a model
// configuration.
func CountParameters(cfg ModelConfig) int { return transformer.CountParameters(cfg) }
