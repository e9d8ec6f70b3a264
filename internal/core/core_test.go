package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/grammar"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/transformer"
)

func tinyPipeline() Config {
	return Config{
		Tokenizer: WordTok,
		Model: transformer.Config{
			Dim: 24, Layers: 1, Heads: 2, Window: 12,
			Pos: transformer.PosLearned, Act: nn.GELU,
		},
		Steps: 200, BatchSize: 4, LR: 0.004, Seed: 1,
	}
}

func pcfgLines(n int, seed uint64) []string {
	return corpus.PCFGText(grammar.TinyEnglish(), n, 10, mathx.NewRNG(seed))
}

func TestTrainRejectsEmptyCorpus(t *testing.T) {
	if _, _, err := Train(nil, tinyPipeline()); err == nil {
		t.Error("empty corpus accepted")
	}
}

func TestTrainAndGenerate(t *testing.T) {
	lines := pcfgLines(300, 2)
	llm, res, err := Train(lines, tinyPipeline())
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalTrainLoss() >= res.Curve[0].TrainLoss {
		t.Errorf("loss did not decrease: %v -> %v", res.Curve[0].TrainLoss, res.FinalTrainLoss())
	}
	gen, err := llm.Gen("the king", sample.WithMaxTokens(8))
	if err != nil {
		t.Fatal(err)
	}
	ids := gen.Tokens
	if len(ids) != 8 {
		t.Fatalf("generated %d tokens, want 8", len(ids))
	}
	// Every generated word must come from the corpus vocabulary.
	vocab := map[string]bool{}
	for _, l := range lines {
		for _, w := range strings.Fields(l) {
			vocab[w] = true
		}
	}
	out := llm.Tok.Decode(ids)
	for _, w := range strings.Fields(out) {
		if !vocab[w] {
			t.Errorf("generated unknown word %q", w)
		}
	}
}

func TestCompleteImplementsGenerator(t *testing.T) {
	lines := pcfgLines(200, 3)
	llm, _, err := Train(lines, tinyPipeline())
	if err != nil {
		t.Fatal(err)
	}
	// eval.Generator compliance, checked structurally.
	var _ interface {
		Complete(string, int) string
	} = llm
	if got := llm.Complete("the queen", 4); got == "" {
		t.Log("empty completion (acceptable for EOS-first models)")
	}
}

func TestPerplexityImprovesWithTraining(t *testing.T) {
	lines := pcfgLines(300, 4)
	test := pcfgLines(60, 5)
	short := tinyPipeline()
	short.Steps = 5
	llm1, _, err := Train(lines, short)
	if err != nil {
		t.Fatal(err)
	}
	long := tinyPipeline()
	long.Steps = 300
	llm2, _, err := Train(lines, long)
	if err != nil {
		t.Fatal(err)
	}
	p1 := llm1.Perplexity(test)
	p2 := llm2.Perplexity(test)
	if p2 >= p1 {
		t.Errorf("more training did not help: %v -> %v", p1, p2)
	}
}

func TestPromptTruncation(t *testing.T) {
	lines := pcfgLines(200, 6)
	llm, _, err := Train(lines, tinyPipeline())
	if err != nil {
		t.Fatal(err)
	}
	// A prompt far longer than the window must not panic.
	longPrompt := strings.Repeat("the king sees the queen ", 40)
	if _, err := llm.Gen(longPrompt, sample.WithMaxTokens(4)); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateUnknownPrompt(t *testing.T) {
	lines := pcfgLines(100, 7)
	llm, _, err := Train(lines, tinyPipeline())
	if err != nil {
		t.Fatal(err)
	}
	// Unknown words map to UNK, still generate.
	if _, err := llm.Gen("xylophone quantum", sample.WithMaxTokens(3)); err != nil {
		t.Fatal(err)
	}
}

func TestCharAndBPETokenizers(t *testing.T) {
	lines := pcfgLines(150, 8)
	for _, kind := range []TokenizerKind{CharTok, BPETok} {
		cfg := tinyPipeline()
		cfg.Tokenizer = kind
		cfg.Steps = 30
		llm, _, err := Train(lines, cfg)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if llm.Tok.VocabSize() < 5 {
			t.Fatalf("kind %d: vocab %d", kind, llm.Tok.VocabSize())
		}
	}
}

// TestModelLadderOrdering is experiment E5: on structured text, the
// perplexity ladder must descend from 1-gram to the neural models (the
// paper's "statistical estimates in the 100s, best LLMs ~20" contrast,
// reproduced in shape at toy scale).
func TestModelLadderOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("ladder trains three model families")
	}
	trainLines := pcfgLines(500, 9)
	testLines := pcfgLines(100, 10)
	ladder, err := PerplexityLadder(trainLines, testLines, DefaultLadder())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatLadder(ladder))
	byName := map[string]float64{}
	for _, e := range ladder {
		if math.IsNaN(e.Perplexity) || e.Perplexity <= 0 {
			t.Fatalf("bad perplexity for %s: %v", e.Name, e.Perplexity)
		}
		byName[e.Name] = e.Perplexity
	}
	if byName["1-gram"] <= byName["2-gram"] {
		t.Errorf("unigram (%v) not worse than bigram (%v)", byName["1-gram"], byName["2-gram"])
	}
	if byName["transformer"] >= byName["1-gram"] {
		t.Errorf("transformer (%v) not better than unigram (%v)", byName["transformer"], byName["1-gram"])
	}
	if byName["lstm"] >= byName["1-gram"] {
		t.Errorf("lstm (%v) not better than unigram (%v)", byName["lstm"], byName["1-gram"])
	}
}

func TestFormatLadder(t *testing.T) {
	s := FormatLadder([]LadderEntry{{Name: "x", Perplexity: 3.14}})
	if !strings.Contains(s, "3.14") {
		t.Errorf("format = %q", s)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Steps == 0 || c.BatchSize == 0 || c.LR == 0 || c.BPEMerges == 0 || c.ClipNorm == 0 {
		t.Errorf("defaults not filled: %+v", c)
	}
}
