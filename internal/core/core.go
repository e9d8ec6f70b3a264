// Package core assembles the substrates into the paper's complete "Recipe
// for an LLM" (§6): corpus → tokenizer → transformer → Eq. 16 training →
// Eq. 8 sampling, behind a single pipeline type. It also provides the
// model-ladder comparison of experiment E5 (n-gram → LSTM → transformer
// perplexity on one corpus, the §5 progression).
package core

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/corpus"
	"repro/internal/ffnlm"
	"repro/internal/lm"
	"repro/internal/mathx"
	"repro/internal/ngram"
	"repro/internal/nn"
	"repro/internal/rnn"
	"repro/internal/sample"
	"repro/internal/tokenizer"
	"repro/internal/train"
	"repro/internal/transformer"
)

// TokenizerKind selects the text → token scheme (§5 tokenization).
type TokenizerKind int

// Supported tokenizers.
const (
	WordTok TokenizerKind = iota
	CharTok
	BPETok
)

// Config assembles pipeline hyperparameters. Model.Vocab is filled in from
// the trained tokenizer.
type Config struct {
	Tokenizer TokenizerKind
	BPEMerges int // merges for BPETok (default 200)

	Model transformer.Config

	Steps     int
	BatchSize int
	LR        float64
	ClipNorm  float64
	Seed      uint64

	// Workers is the data-parallel worker count per optimizer step (see
	// train.Config.Workers): 0/1 = sequential, >1 = sharded minibatch with
	// deterministic gradient reduction, negative = runtime.NumCPU().
	Workers int
}

// WithDefaults fills unset training fields.
func (c Config) WithDefaults() Config {
	if c.BPEMerges == 0 {
		c.BPEMerges = 200
	}
	if c.Steps == 0 {
		c.Steps = 300
	}
	if c.BatchSize == 0 {
		c.BatchSize = 4
	}
	if c.LR == 0 {
		c.LR = 0.003
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 1
	}
	return c
}

// LLM is a trained language model: tokenizer plus transformer.
type LLM struct {
	Tok   tokenizer.Tokenizer
	Model *transformer.Model
	Cfg   Config
}

// Train builds the tokenizer from lines, trains a transformer on the
// resulting token stream, and returns the model with its training curve.
func Train(lines []string, cfg Config) (*LLM, *train.Result, error) {
	cfg = cfg.WithDefaults()
	if len(lines) == 0 {
		return nil, nil, fmt.Errorf("core: empty corpus")
	}
	var tok tokenizer.Tokenizer
	switch cfg.Tokenizer {
	case WordTok:
		tok = tokenizer.NewWord(lines)
	case CharTok:
		tok = tokenizer.NewChar(lines)
	case BPETok:
		tok = tokenizer.TrainBPE(lines, cfg.BPEMerges)
	default:
		return nil, nil, fmt.Errorf("core: unknown tokenizer kind %d", cfg.Tokenizer)
	}
	mcfg := cfg.Model
	mcfg.Vocab = tok.VocabSize()
	model, err := transformer.New(mcfg, mathx.NewRNG(cfg.Seed))
	if err != nil {
		return nil, nil, err
	}
	stream := corpus.Concat(lines, tok.Encode, tokenizer.EOS)
	windows := corpus.MakeWindows(stream, mcfg.Window)
	if len(windows) == 0 {
		return nil, nil, fmt.Errorf("core: corpus too small for window %d", mcfg.Window)
	}
	batches := make([]train.Batch, len(windows))
	for i, w := range windows {
		batches[i] = train.Batch{Input: w.Input, Target: w.Target}
	}
	res, err := train.Run(model, batches, train.Config{
		Steps: cfg.Steps, BatchSize: cfg.BatchSize,
		Schedule:  train.WarmupCosine(cfg.LR, cfg.LR/10, cfg.Steps/10, cfg.Steps),
		Optimizer: train.NewAdam(0), ClipNorm: cfg.ClipNorm, Seed: cfg.Seed,
		Workers: cfg.Workers,
	})
	if err != nil {
		return nil, nil, err
	}
	return &LLM{Tok: tok, Model: model, Cfg: cfg}, res, nil
}

// ---- lm.LanguageModel implementation ----

// EncodePrompt implements lm.LanguageModel: tokenize and keep the last
// Window − budget tokens (at least one), reserving budget tokens of
// generation room.
func (l *LLM) EncodePrompt(prompt string, budget int) ([]int, error) {
	ids := l.Tok.Encode(prompt)
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: prompt %q encodes to no tokens", prompt)
	}
	room := l.Model.Cfg.Window - budget
	if room < 1 {
		room = 1
	}
	if len(ids) > room {
		ids = ids[len(ids)-room:]
	}
	return ids, nil
}

// Decode implements lm.LanguageModel.
func (l *LLM) Decode(ids []int) string { return l.Tok.Decode(ids) }

// NewStepper implements lm.LanguageModel: a fresh KV-cache predictor.
func (l *LLM) NewStepper() sample.Stepper { return l.Model.NewPredictor() }

// ContextWindow implements lm.LanguageModel.
func (l *LLM) ContextWindow() int { return l.Model.Cfg.Window }

// Gen extends prompt under the unified generation options (strategy, seed,
// budget, stop behavior); it is lm.Gen over this model.
func (l *LLM) Gen(prompt string, opts ...sample.Option) (lm.Result, error) {
	return lm.Gen(l, prompt, opts...)
}

// Stream is Gen with per-token delivery: onToken receives every sampled
// token (id, decoded text piece, index) as it is produced; the pieces
// concatenate to the final Result.Text. Cancelling ctx aborts the
// generation: cancellation is observed between decode steps and once
// before the prompt's chunked prefill pass (see lm.Stream; serving
// deployments needing bounded mid-prefill cancellation latency chunk at
// the scheduling layer via serve.Config.PrefillChunk).
func (l *LLM) Stream(ctx context.Context, prompt string, onToken func(sample.Token) error, opts ...sample.Option) (lm.Result, error) {
	return lm.Stream(ctx, l, prompt, onToken, opts...)
}

// Complete greedily extends prompt by up to maxTokens tokens, stopping at
// the end-of-sequence separator, and returns the decoded continuation.
// It implements eval.Generator.
func (l *LLM) Complete(prompt string, maxTokens int) string {
	return lm.Completer{M: l}.Complete(prompt, maxTokens)
}

// CrossEntropy evaluates the Eq. 3 objective on held-out lines (teacher-
// forced, windowed like training).
func (l *LLM) CrossEntropy(lines []string) float64 {
	stream := corpus.Concat(lines, l.Tok.Encode, tokenizer.EOS)
	windows := corpus.MakeWindows(stream, l.Model.Cfg.Window)
	if len(windows) == 0 {
		return math.NaN()
	}
	batches := make([]train.Batch, len(windows))
	for i, w := range windows {
		batches[i] = train.Batch{Input: w.Input, Target: w.Target}
	}
	return train.MeanLoss(l.Model, batches)
}

// Perplexity is exp(CrossEntropy) on held-out lines.
func (l *LLM) Perplexity(lines []string) float64 {
	return math.Exp(l.CrossEntropy(lines))
}

// ---- Model ladder (experiment E5) ----

// LadderEntry is one model's held-out perplexity.
type LadderEntry struct {
	Name       string
	Perplexity float64
}

// LadderConfig sizes the E5 comparison.
type LadderConfig struct {
	Orders      []int // n-gram orders to include (default 1..3)
	LSTMHidden  int
	LSTMSteps   int
	TransDim    int
	TransLayers int
	TransHeads  int
	TransSteps  int
	Window      int
	Seed        uint64
}

// DefaultLadder returns test-scale settings.
func DefaultLadder() LadderConfig {
	return LadderConfig{
		Orders:     []int{1, 2, 3},
		LSTMHidden: 32, LSTMSteps: 250,
		TransDim: 32, TransLayers: 2, TransHeads: 2, TransSteps: 300,
		Window: 16, Seed: 5,
	}
}

// PerplexityLadder trains every rung on the same word-tokenized corpus and
// evaluates held-out perplexity, reproducing the §5 progression: the
// expected ordering is 1-gram ≫ higher n-grams > neural models.
func PerplexityLadder(trainLines, testLines []string, cfg LadderConfig) ([]LadderEntry, error) {
	tok := tokenizer.NewWord(trainLines)
	trainStream := corpus.Concat(trainLines, tok.Encode, tokenizer.EOS)
	testStream := corpus.Concat(testLines, tok.Encode, tokenizer.EOS)
	vocab := tok.VocabSize()
	var ladder []LadderEntry

	for _, order := range cfg.Orders {
		m := ngram.New(order, vocab)
		m.AddK = 0.05
		m.Train(trainStream)
		ladder = append(ladder, LadderEntry{
			Name:       fmt.Sprintf("%d-gram", order),
			Perplexity: m.Perplexity(testStream),
		})
	}

	windows := corpus.MakeWindows(trainStream, cfg.Window)
	testWindows := corpus.MakeWindows(testStream, cfg.Window)
	batches := make([]train.Batch, len(windows))
	for i, w := range windows {
		batches[i] = train.Batch{Input: w.Input, Target: w.Target}
	}
	testBatches := make([]train.Batch, len(testWindows))
	for i, w := range testWindows {
		testBatches[i] = train.Batch{Input: w.Input, Target: w.Target}
	}

	ffn := ffnlm.MustNew(ffnlm.Config{
		Vocab: vocab, Dim: 16, Context: 3, Hidden: cfg.LSTMHidden,
	}, mathx.NewRNG(cfg.Seed+3))
	if _, err := train.Run(ffn, batches, train.Config{
		Steps: cfg.LSTMSteps, BatchSize: 4,
		Schedule:  train.Constant(0.004),
		Optimizer: train.NewAdam(0), ClipNorm: 1, Seed: cfg.Seed,
	}); err != nil {
		return nil, err
	}
	ladder = append(ladder, LadderEntry{
		Name:       "ffn-4gram",
		Perplexity: math.Exp(train.MeanLoss(ffn, testBatches)),
	})

	lstm := rnn.MustNew(rnn.Config{Vocab: vocab, Dim: cfg.LSTMHidden, Hidden: cfg.LSTMHidden, Kind: rnn.LSTM},
		mathx.NewRNG(cfg.Seed+1))
	if _, err := train.Run(lstm, batches, train.Config{
		Steps: cfg.LSTMSteps, BatchSize: 4,
		Schedule:  train.Constant(0.004),
		Optimizer: train.NewAdam(0), ClipNorm: 1, Seed: cfg.Seed,
	}); err != nil {
		return nil, err
	}
	ladder = append(ladder, LadderEntry{
		Name:       "lstm",
		Perplexity: math.Exp(train.MeanLoss(lstm, testBatches)),
	})

	tf := transformer.MustNew(transformer.Config{
		Vocab: vocab, Dim: cfg.TransDim, Layers: cfg.TransLayers, Heads: cfg.TransHeads,
		Window: cfg.Window, Pos: transformer.PosLearned, Act: nn.GELU,
	}, mathx.NewRNG(cfg.Seed+2))
	if _, err := train.Run(tf, batches, train.Config{
		Steps: cfg.TransSteps, BatchSize: 4,
		Schedule:  train.WarmupCosine(0.004, 0.0004, cfg.TransSteps/10, cfg.TransSteps),
		Optimizer: train.NewAdam(0), ClipNorm: 1, Seed: cfg.Seed,
	}); err != nil {
		return nil, err
	}
	ladder = append(ladder, LadderEntry{
		Name:       "transformer",
		Perplexity: math.Exp(train.MeanLoss(tf, testBatches)),
	})
	return ladder, nil
}

// FormatLadder renders the ladder.
func FormatLadder(ladder []LadderEntry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s\n", "Model", "Perplexity")
	for _, e := range ladder {
		fmt.Fprintf(&b, "%-14s %12.2f\n", e.Name, e.Perplexity)
	}
	return b.String()
}
