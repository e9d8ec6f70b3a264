package llm_test

import (
	"context"
	"strings"
	"testing"

	"repro/llm"
)

func TestQuickstartFlow(t *testing.T) {
	lines := llm.SyntheticCorpus(250, 42)
	if len(lines) != 250 {
		t.Fatalf("corpus size %d", len(lines))
	}
	cfg := llm.DefaultConfig()
	cfg.Steps = 120
	model, curve, err := llm.Train(lines, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if curve.FinalLoss() <= 0 {
		t.Errorf("final loss = %v", curve.FinalLoss())
	}
	losses := curve.Losses()
	if len(losses) != cfg.Steps {
		t.Fatalf("Losses has %d entries, want one per step (%d)", len(losses), cfg.Steps)
	}
	if losses[len(losses)-1] != curve.FinalLoss() {
		t.Errorf("Losses[-1] = %v != FinalLoss %v", losses[len(losses)-1], curve.FinalLoss())
	}
	// The text may be empty if EOS is sampled; the API contract is no error.
	res, err := model.Gen("the king",
		llm.WithMaxTokens(6), llm.WithStrategy(llm.Temperature(0.8)), llm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Text

	// The package-level Gen over the LanguageModel interface is the same call.
	viaIface, err := llm.Gen(model, "the king",
		llm.WithMaxTokens(6), llm.WithStrategy(llm.Temperature(0.8)), llm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if viaIface.Text != out {
		t.Errorf("llm.Gen %q != model.Gen %q", viaIface.Text, out)
	}

	// Streaming delivers pieces that concatenate to the same final text.
	var streamed strings.Builder
	sres, err := model.Stream(context.Background(), "the king", func(tok llm.Token) error {
		streamed.WriteString(tok.Text)
		return nil
	}, llm.WithMaxTokens(6), llm.WithStrategy(llm.Temperature(0.8)), llm.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if sres.Text != out || streamed.String() != out {
		t.Errorf("streamed %q / pieces %q != %q", sres.Text, streamed.String(), out)
	}
}

// TestBackendLadderThroughPublicAPI trains two non-transformer backends,
// generates from both through the unified API, and runs the unchanged eval
// harness against them.
func TestBackendLadderThroughPublicAPI(t *testing.T) {
	lines := llm.SyntheticCorpus(120, 11)
	for _, name := range []string{"ngram", "ffn"} {
		backend, err := llm.TrainBackend(name, lines, 5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := llm.Gen(backend, "the king", llm.WithMaxTokens(5), llm.WithSeed(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Tokens) != 5 {
			t.Errorf("%s: %d tokens, want 5", name, len(res.Tokens))
		}
		task := llm.BenchmarkSuite(1)[0]
		task.Items = task.Items[:6] // keep the public smoke test fast
		acc := llm.ScoreTask(llm.Completer(backend), task, 1, 2)
		if acc < 0 || acc > 1 {
			t.Errorf("%s: accuracy %v out of range", name, acc)
		}
	}
	if _, err := llm.TrainBackend("bogus", lines, 1); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestPublicBenchmarkSuite(t *testing.T) {
	tasks := llm.BenchmarkSuite(1)
	if len(tasks) < 5 {
		t.Fatalf("suite has %d tasks", len(tasks))
	}
	names := map[string]bool{}
	for _, task := range tasks {
		names[task.Name] = true
	}
	for _, want := range []string{"copy", "reverse", "arithmetic", "negation", "composition"} {
		if !names[want] {
			t.Errorf("missing task %q", want)
		}
	}
}

func TestPublicTable1(t *testing.T) {
	rows := llm.Table1()
	found := false
	for _, r := range rows {
		if r.Name == "GPT-3" {
			found = true
			if est := r.Estimate(); est < 150e9 || est > 200e9 {
				t.Errorf("GPT-3 estimate = %g", est)
			}
		}
	}
	if !found {
		t.Error("GPT-3 missing from Table 1")
	}
}

func TestCountParameters(t *testing.T) {
	cfg := llm.ModelConfig{Vocab: 100, Dim: 16, Layers: 2, Heads: 2, Window: 8,
		Pos: llm.PosLearned, Act: llm.GELU}
	if n := llm.CountParameters(cfg); n <= 0 {
		t.Errorf("param count = %d", n)
	}
}

func TestStrategiesConstructible(t *testing.T) {
	for _, s := range []llm.Strategy{llm.Greedy(), llm.Temperature(1), llm.TopK(5, 1), llm.TopP(0.9, 1)} {
		if s == nil {
			t.Fatal("nil strategy")
		}
	}
}

func TestCorpusLooksEnglishLike(t *testing.T) {
	lines := llm.SyntheticCorpus(50, 3)
	joined := strings.Join(lines, " ")
	if !strings.Contains(joined, "the") {
		t.Error("corpus has no determiners")
	}
}
