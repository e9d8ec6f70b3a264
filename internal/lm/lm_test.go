package lm_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/grammar"
	"repro/internal/lm"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/transformer"
)

// Training dominates test time, so every model is trained once per binary.
var (
	setupOnce sync.Once
	tfModel   *core.LLM
	backends  map[string]lm.LanguageModel
)

func testLines() []string {
	return corpus.PCFGText(grammar.TinyEnglish(), 120, 10, mathx.NewRNG(11))
}

func setup(t *testing.T) {
	t.Helper()
	setupOnce.Do(func() {
		lines := testLines()
		m, _, err := core.Train(lines, core.Config{
			Tokenizer: core.WordTok,
			Model: transformer.Config{
				Dim: 16, Layers: 1, Heads: 2, Window: 16,
				Pos: transformer.PosLearned, Act: nn.GELU,
			},
			Steps: 30, BatchSize: 2, Seed: 7,
		})
		if err != nil {
			panic(err)
		}
		tfModel = m
		backends = map[string]lm.LanguageModel{}
		for _, name := range []string{"ngram", "ffn", "rnn"} {
			b, err := lm.TrainBackend(name, lines, 5)
			if err != nil {
				panic(err)
			}
			backends[name] = b
		}
	})
}

// TestStreamPiecesConcatenate asserts the streaming contract: pieces arrive
// in order with consecutive indices and concatenate to exactly the final
// text, for every backend.
func TestStreamPiecesConcatenate(t *testing.T) {
	setup(t)
	models := map[string]lm.LanguageModel{"transformer": tfModel}
	for name, b := range backends {
		models[name] = b
	}
	for name, m := range models {
		var pieces []string
		idx := 0
		res, err := lm.Stream(context.Background(), m, "the king", func(tok sample.Token) error {
			if tok.Index != idx {
				t.Errorf("%s: event index %d, want %d", name, tok.Index, idx)
			}
			idx++
			pieces = append(pieces, tok.Text)
			return nil
		}, sample.WithMaxTokens(6), sample.WithStrategy(sample.Temperature{T: 0.9}), sample.WithSeed(3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := strings.Join(pieces, ""); got != res.Text {
			t.Errorf("%s: concatenated pieces %q != final text %q", name, got, res.Text)
		}
		if idx != 6 {
			t.Errorf("%s: %d events, want 6", name, idx)
		}
		// The streamed result equals the non-streamed one.
		plain, err := lm.Gen(m, "the king",
			sample.WithMaxTokens(6), sample.WithStrategy(sample.Temperature{T: 0.9}), sample.WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		if plain.Text != res.Text {
			t.Errorf("%s: streamed %q != plain %q", name, res.Text, plain.Text)
		}
	}
}

func TestStreamCallbackErrorAborts(t *testing.T) {
	setup(t)
	boom := errors.New("boom")
	calls := 0
	_, err := lm.Stream(context.Background(), tfModel, "the king", func(sample.Token) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	}, sample.WithMaxTokens(8))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 2 {
		t.Fatalf("callback ran %d times, want 2", calls)
	}
}

func TestStreamCancelledContext(t *testing.T) {
	setup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := lm.Stream(ctx, tfModel, "the king", nil, sample.WithMaxTokens(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCompleterMatchesCoreComplete: the generic eval adapter reproduces the
// transformer's own Complete (greedy, stop-at-EOS, fixed seed).
func TestCompleterMatchesCoreComplete(t *testing.T) {
	setup(t)
	for _, prompt := range []string{"the king", "a queen sees"} {
		want := tfModel.Complete(prompt, 8)
		got := lm.Completer{M: tfModel}.Complete(prompt, 8)
		if got != want {
			t.Errorf("prompt %q: Completer %q != Complete %q", prompt, got, want)
		}
	}
}

// TestEvalScoreTaskAcrossBackends runs the unchanged eval harness against
// two non-transformer backends through the LanguageModel interface — the
// acceptance criterion of the API redesign.
func TestEvalScoreTaskAcrossBackends(t *testing.T) {
	setup(t)
	task := eval.CopyTask(8, 2, mathx.NewRNG(1))
	for _, name := range []string{"ngram", "rnn"} {
		acc := eval.ScoreTask(lm.Completer{M: backends[name]}, task,
			eval.PromptConfig{Shots: 1}, mathx.NewRNG(2))
		if acc < 0 || acc > 1 {
			t.Errorf("%s: accuracy %v out of range", name, acc)
		}
		t.Logf("%s copy-task accuracy: %.2f", name, acc)
	}
}

// TestBackendsGenerate: every adapted substrate runs the full option set.
func TestBackendsGenerate(t *testing.T) {
	setup(t)
	for name, b := range backends {
		res, err := lm.Gen(b, "the king",
			sample.WithMaxTokens(5), sample.WithStrategy(sample.TopK{K: 5, T: 1}), sample.WithSeed(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Tokens) != 5 {
			t.Errorf("%s: %d tokens, want 5", name, len(res.Tokens))
		}
		// Determinism: same options, same output.
		again, err := lm.Gen(b, "the king",
			sample.WithMaxTokens(5), sample.WithStrategy(sample.TopK{K: 5, T: 1}), sample.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		if again.Text != res.Text {
			t.Errorf("%s: nondeterministic: %q != %q", name, again.Text, res.Text)
		}
	}
}

func TestTrainBackendErrors(t *testing.T) {
	if _, err := lm.TrainBackend("nope", testLines(), 1); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := lm.TrainBackend("ngram", nil, 1); err == nil {
		t.Error("empty corpus accepted")
	}
}

// TestOverWindowBudgetErrors: a windowed model accepts every budget it can
// decode — up to the window itself, since the last sampled token is never
// fed — and rejects larger ones instead of panicking mid-generation in the
// stepper.
func TestOverWindowBudgetErrors(t *testing.T) {
	setup(t)
	w := tfModel.ContextWindow()
	// Recorded from the positional core.LLM.Generate that lm.Gen replaced,
	// which accepted this budget.
	const want = "woman garden castle queen king the the rules princess the man royal"
	res, err := lm.Gen(tfModel, "the king", sample.WithMaxTokens(w),
		sample.WithStrategy(sample.Temperature{T: 0.8}), sample.WithSeed(1))
	if err != nil {
		t.Fatalf("MaxTokens = window %d rejected: %v", w, err)
	}
	if len(res.Tokens) != w || res.Text != want {
		t.Errorf("MaxTokens = window: %d tokens %q, want %d tokens %q", len(res.Tokens), res.Text, w, want)
	}
	if _, err := lm.Gen(tfModel, "the king", sample.WithMaxTokens(w+1)); err == nil {
		t.Errorf("MaxTokens = window+1 accepted")
	}
	// Unbounded backends accept large budgets.
	if _, err := lm.Gen(backends["ngram"], "the king", sample.WithMaxTokens(w+5)); err != nil {
		t.Errorf("ngram rejected MaxTokens %d: %v", w+5, err)
	}
}

// TestInvalidStrategyErrors: every strategy sample.ValidateStrategy rejects
// is an error from lm.Gen, for every backend, never a panic inside the
// decode loop.
func TestInvalidStrategyErrors(t *testing.T) {
	setup(t)
	bad := []sample.Strategy{
		sample.Temperature{T: 0},
		sample.Temperature{T: -1},
		sample.TopK{K: -1, T: 1},
		sample.TopK{K: 5, T: -0.5},
		sample.TopP{P: -0.1, T: 1},
		sample.TopP{P: 1.5, T: 1},
		sample.TopP{P: 0.9, T: -1},
	}
	models := map[string]lm.LanguageModel{"transformer": tfModel}
	for name, b := range backends {
		models[name] = b
	}
	for name, m := range models {
		for _, strat := range bad {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s %+v: panic %v", name, strat, r)
					}
				}()
				_, err := lm.Gen(m, "the king", sample.WithMaxTokens(4), sample.WithStrategy(strat))
				if err == nil {
					t.Errorf("%s %+v: accepted", name, strat)
				}
			}()
		}
	}
}

func TestEmptyPromptErrors(t *testing.T) {
	setup(t)
	for name, b := range backends {
		if _, err := lm.Gen(b, "", sample.WithMaxTokens(3)); err == nil {
			t.Errorf("%s: empty prompt accepted", name)
		}
	}
}

func TestPieceDecoder(t *testing.T) {
	// A decode that joins with spaces and drops id 0, like the word
	// tokenizer's handling of specials.
	words := []string{"", "alpha", "beta", "gamma"}
	decode := func(ids []int) string {
		var parts []string
		for _, id := range ids {
			if id == 0 {
				continue
			}
			parts = append(parts, words[id])
		}
		return strings.Join(parts, " ")
	}
	pd := lm.NewPieceDecoder(decode)
	var got []string
	for _, id := range []int{1, 0, 2, 3} {
		got = append(got, pd.Next(id).Text)
	}
	if joined := strings.Join(got, ""); joined != "alpha beta gamma" {
		t.Errorf("pieces %q join to %q", got, joined)
	}
	if got[1] != "" {
		t.Errorf("dropped token piece = %q, want empty", got[1])
	}
}

// TestPromptLongerThanWindowKeepsLast pins the over-window prompt policy
// end to end: EncodePrompt keeps the last Window−budget tokens, and the
// generation drivers (whose prefill now runs through the chunked Extend
// path) produce exactly the output of the truncated prompt.
func TestPromptLongerThanWindowKeepsLast(t *testing.T) {
	setup(t)
	long := strings.TrimSpace(strings.Repeat("the king sees the queen ", 6)) // 30 words ≫ window 16
	const budget = 4
	room := tfModel.ContextWindow() - budget

	ids, err := tfModel.EncodePrompt(long, budget)
	if err != nil {
		t.Fatal(err)
	}
	full := tfModel.Tok.Encode(long)
	if len(ids) != room {
		t.Fatalf("EncodePrompt kept %d tokens, want %d", len(ids), room)
	}
	for i, id := range ids {
		if want := full[len(full)-room+i]; id != want {
			t.Fatalf("EncodePrompt[%d] = %d, want keep-last suffix token %d", i, id, want)
		}
	}

	got, err := lm.Gen(tfModel, long, sample.WithMaxTokens(budget), sample.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	// The same generation from the pre-truncated prompt text.
	want, err := lm.Gen(tfModel, tfModel.Decode(ids), sample.WithMaxTokens(budget), sample.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != want.Text {
		t.Fatalf("overlong prompt generation %q != truncated prompt generation %q", got.Text, want.Text)
	}
}
