package serve

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/lm"
	"repro/internal/mathx"
	"repro/internal/sample"
)

// uniformDrafter proposes the argmax of the uniform distribution over vocab
// tokens: token 0, which matches Greedy over fakeBatch's zero logits, so
// every draft is accepted — the deterministic regime the scheduling test
// pins.
type uniformDrafter struct{ vocab int }

func (uniformDrafter) Draft([]int) int { return 0 }

// TestServeSpeculativeParity is the schedule-independence property of
// speculative serving on the real model: every strategy, at MaxBatch 1, 4
// and 8, with the requests arriving concurrently in a shuffled order, is
// served bitwise the completion lm.Gen gives. Which iterations give a
// request a verification round, and which requests share its passes, must
// not matter. Odd requests stream (serveOne checks the pieces concatenate
// to the result), every third stops at EOS, and the speculation counters
// on Stats must stay coherent.
func TestServeSpeculativeParity(t *testing.T) {
	m := testLLM(t)
	prompts := []string{"the king", "a dragon sees the castle", "the old wizard",
		"a queen sees", "alice greets the", "the old dog"}
	strats := []sample.Strategy{
		sample.Greedy{},
		sample.Temperature{T: 0.9},
		sample.TopK{K: 8, T: 0.8},
		sample.TopP{P: 0.9, T: 0.8},
	}
	type request struct {
		prompt string
		opts   []sample.Option
	}
	var reqs []request
	for _, strat := range strats {
		for _, p := range prompts {
			i := len(reqs)
			opts := []sample.Option{sample.WithMaxTokens(8), sample.WithStrategy(strat), sample.WithSeed(uint64(i))}
			if i%3 == 2 {
				opts = append(opts, sample.WithStop())
			}
			reqs = append(reqs, request{p, opts})
		}
	}
	for _, maxBatch := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("MaxBatch%d", maxBatch), func(t *testing.T) {
			s := New(m, Config{MaxBatch: maxBatch, Speculate: 4, Drafter: lm.DistillDrafter(m, 3, 300, 1)})
			defer s.Close()
			var wg sync.WaitGroup
			for _, i := range mathx.NewRNG(uint64(maxBatch)).Perm(len(reqs)) {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					serveOne(t, s, m, i, reqs[i].prompt, reqs[i].opts)
				}(i)
			}
			wg.Wait()

			st := s.Stats()
			if st.SpecRounds == 0 || st.SpecAccepted == 0 {
				t.Fatalf("speculative server accepted no drafts: %+v", st)
			}
			if st.SpecAccepted > st.SpecDrafted {
				t.Fatalf("accepted %d > drafted %d", st.SpecAccepted, st.SpecDrafted)
			}
			var histRounds, histWeighted uint64
			for i, c := range st.SpecAcceptHist {
				histRounds += c
				histWeighted += uint64(i) * c
			}
			if histRounds > st.SpecRounds {
				t.Errorf("histogram rounds %d > SpecRounds %d", histRounds, st.SpecRounds)
			}
			if histWeighted != st.SpecAccepted {
				t.Errorf("histogram-weighted accepted %d != SpecAccepted %d", histWeighted, st.SpecAccepted)
			}
		})
	}
}

// TestServeSpeculativeStochastic checks that a stochastic strategy under the
// speculative server is deterministic per (request, seed) across fresh
// servers — the emitted stream is the target's own seeded stream, so it
// equals lm.Gen — and that the stop and budget contracts hold.
func TestServeSpeculativeStochastic(t *testing.T) {
	m := testLLM(t)
	opts := []sample.Option{sample.WithMaxTokens(8), sample.WithStrategy(sample.Temperature{T: 0.9}), sample.WithSeed(11)}

	run := func() Result {
		s := New(m, Config{Speculate: 4, Drafter: lm.DistillDrafter(m, 3, 300, 1)})
		defer s.Close()
		res, err := s.Do(context.Background(), NewRequest("the king", opts...))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Text != b.Text || !slices.Equal(a.Tokens, b.Tokens) {
		t.Fatalf("stochastic speculative serving not deterministic: %q vs %q", a.Text, b.Text)
	}
	if len(a.Tokens) == 0 || len(a.Tokens) > 8 {
		t.Fatalf("token budget violated: %d tokens", len(a.Tokens))
	}
	want, err := lm.Gen(m, "the king", opts...)
	if err != nil {
		t.Fatal(err)
	}
	if a.Text != want.Text || !slices.Equal(a.Tokens, want.Tokens) {
		t.Fatalf("served %q != lm.Gen %q", a.Text, want.Text)
	}

	// Stop-at-EOS under speculation: the emitted stream must end at (and
	// trim) the stop token without overshooting the budget.
	s := New(m, Config{Speculate: 4, Drafter: lm.DistillDrafter(m, 3, 300, 1)})
	defer s.Close()
	res, err := s.Do(context.Background(), NewRequest("the king",
		sample.WithMaxTokens(10), sample.WithStop(), sample.WithSeed(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tokens) > 10 {
		t.Fatalf("stop-mode budget violated: %d tokens", len(res.Tokens))
	}
}
