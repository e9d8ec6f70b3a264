package core

import (
	"bytes"
	"testing"

	"repro/internal/sample"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	lines := pcfgLines(150, 20)
	cfg := tinyPipeline()
	cfg.Steps = 50
	llm, _, err := Train(lines, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := llm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical generations from identical state.
	ra, err := llm.Gen("the king", sample.WithMaxTokens(6))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := restored.Gen("the king", sample.WithMaxTokens(6))
	if err != nil {
		t.Fatal(err)
	}
	a, b := ra.Tokens, rb.Tokens
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation diverged at %d: %v vs %v", i, a, b)
		}
	}
	// Perplexities match.
	test := pcfgLines(30, 21)
	if pa, pb := llm.Perplexity(test), restored.Perplexity(test); pa != pb {
		t.Errorf("perplexity drift: %v vs %v", pa, pb)
	}
}

func TestSaveLoadBPE(t *testing.T) {
	lines := pcfgLines(100, 22)
	cfg := tinyPipeline()
	cfg.Tokenizer = BPETok
	cfg.Steps = 20
	llm, _, err := Train(lines, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := llm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Tok.VocabSize() != llm.Tok.VocabSize() {
		t.Error("vocab size drift")
	}
}

func TestSaveCharUnsupported(t *testing.T) {
	lines := pcfgLines(80, 23)
	cfg := tinyPipeline()
	cfg.Tokenizer = CharTok
	cfg.Steps = 5
	llm, _, err := Train(lines, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := llm.Save(&buf); err == nil {
		t.Error("char tokenizer save should be unsupported")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not json"))); err == nil {
		t.Error("garbage accepted")
	}
}
