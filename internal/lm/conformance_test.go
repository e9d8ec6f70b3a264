package lm_test

import (
	"math"
	"testing"

	"repro/internal/lm"
	"repro/internal/sample"
)

// This file is the shared LanguageModel conformance suite: one table-driven
// pass over every backend behind the interface — the count-based n-gram, the
// fixed-window FFN-LM, the recurrent LSTM, and the transformer pipeline —
// checking the contract every generation entry point depends on:
// encode→step→decode round-trips, deterministic re-runs, logit shape and
// vocabulary invariants, the ContextWindow budget contract, and (where
// implemented) the chunked-prefill fast path against the one-token-at-a-time
// reference.

// conformanceModels returns every backend under test, keyed by name.
func conformanceModels(t *testing.T) map[string]lm.LanguageModel {
	t.Helper()
	setup(t)
	models := map[string]lm.LanguageModel{"transformer": tfModel}
	for name, b := range backends {
		models[name] = b
	}
	return models
}

func bitsEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestConformance runs the full contract check per backend as subtests, so a
// violation names the backend and the clause it broke.
func TestConformance(t *testing.T) {
	const prompt = "the king sees the queen"
	const budget = 5
	for name, m := range conformanceModels(t) {
		t.Run(name, func(t *testing.T) {
			// --- encode → decode round-trip ---
			ids, err := m.EncodePrompt(prompt, budget)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) == 0 {
				t.Fatal("EncodePrompt returned no tokens without error")
			}
			text := m.Decode(ids)
			if text == "" {
				t.Fatal("Decode of a non-empty encoding is empty")
			}
			again, err := m.EncodePrompt(text, budget)
			if err != nil {
				t.Fatal(err)
			}
			if len(again) != len(ids) {
				t.Fatalf("re-encoding the decode gives %d tokens, want %d", len(again), len(ids))
			}
			for i := range ids {
				if again[i] != ids[i] {
					t.Fatalf("encode/decode round-trip diverges at %d: %d != %d", i, again[i], ids[i])
				}
			}

			// --- window/budget contract ---
			if w := m.ContextWindow(); w > 0 {
				if len(ids)+budget > w {
					t.Fatalf("EncodePrompt kept %d tokens for budget %d in window %d", len(ids), budget, w)
				}
			}

			// --- logit shape, vocabulary, and finiteness invariants ---
			st := m.NewStepper()
			var logits []float64
			vocab := 0
			for pos, id := range ids {
				logits = st.Append(id)
				if vocab == 0 {
					vocab = len(logits)
					if vocab < 2 {
						t.Fatalf("vocabulary size %d", vocab)
					}
				}
				if len(logits) != vocab {
					t.Fatalf("position %d: logit length %d, want %d", pos, len(logits), vocab)
				}
				for j, v := range logits {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("position %d: logits[%d] = %v", pos, j, v)
					}
				}
				if id < 0 || id >= vocab {
					t.Fatalf("encoded id %d outside vocabulary %d", id, vocab)
				}
			}

			// --- deterministic re-runs: a fresh stepper reproduces the
			// logits bitwise, position by position ---
			st2 := m.NewStepper()
			for pos, id := range ids {
				l2 := st2.Append(id)
				if pos == len(ids)-1 && !bitsEq(l2, logits) {
					t.Fatalf("fresh stepper diverges at final position %d", pos)
				}
			}

			// --- chunked prefill fast path (when implemented) matches the
			// per-token reference bitwise ---
			if ex, ok := m.NewStepper().(sample.Extender); ok {
				if got := ex.Extend(ids); !bitsEq(got, logits) {
					t.Fatal("Extender.Extend diverges from per-token Append")
				}
			}

			// --- generation determinism across the strategy set ---
			for _, strat := range []sample.Strategy{
				sample.Greedy{},
				sample.Temperature{T: 0.9},
				sample.TopK{K: 4, T: 1},
				sample.TopP{P: 0.9, T: 0.8},
			} {
				opts := []sample.Option{
					sample.WithMaxTokens(budget), sample.WithStrategy(strat), sample.WithSeed(9),
				}
				a, err := lm.Gen(m, prompt, opts...)
				if err != nil {
					t.Fatalf("%T: %v", strat, err)
				}
				if len(a.Tokens) == 0 || len(a.Tokens) > budget {
					t.Fatalf("%T: %d tokens for budget %d", strat, len(a.Tokens), budget)
				}
				for _, tok := range a.Tokens {
					if tok < 0 || tok >= vocab {
						t.Fatalf("%T: sampled id %d outside vocabulary %d", strat, tok, vocab)
					}
				}
				b, err := lm.Gen(m, prompt, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if a.Text != b.Text {
					t.Fatalf("%T: nondeterministic re-run: %q != %q", strat, a.Text, b.Text)
				}
			}
		})
	}
}
