package serve

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/lm"
	"repro/internal/sample"
)

// uniformDrafter proposes the uniform distribution; its argmax is token 0,
// which matches Greedy over fakeBatch's zero logits, so every draft is
// accepted — the deterministic regime the scheduling test pins.
type uniformDrafter struct{ vocab int }

func (u uniformDrafter) NextDist([]int) []float64 {
	d := make([]float64, u.vocab)
	for i := range d {
		d[i] = 1 / float64(u.vocab)
	}
	return d
}

// TestServeSpeculativeParity checks the end-to-end contract on the real
// model: greedy requests served with speculative decoding produce bitwise
// the same text and tokens as the plain single-sequence driver, including
// under concurrency and streaming.
func TestServeSpeculativeParity(t *testing.T) {
	m := testLLM(t)
	drafter := lm.DistillDrafter(m, 3, 300, 1)
	s := New(m, Config{Speculate: 4, Drafter: drafter})
	defer s.Close()

	prompts := []string{"the king", "a dragon sees the castle", "the old wizard"}
	type out struct {
		got Result
		err error
	}
	ch := make(chan out, len(prompts))
	for _, p := range prompts {
		go func(p string) {
			var pieces strings.Builder
			res, err := s.Stream(context.Background(), NewRequest(p, sample.WithMaxTokens(8)),
				func(ev sample.Token) error { pieces.WriteString(ev.Text); return nil })
			if err == nil && pieces.String() != res.Text {
				err = fmt.Errorf("stream pieces %q != result %q", pieces.String(), res.Text)
			}
			ch <- out{res, err}
		}(p)
	}
	got := map[string]bool{}
	for range prompts {
		o := <-ch
		if o.err != nil {
			t.Fatal(o.err)
		}
		got[o.got.Text] = true
	}
	for _, p := range prompts {
		want, err := lm.Gen(m, p, sample.WithMaxTokens(8))
		if err != nil {
			t.Fatal(err)
		}
		if !got[want.Text] {
			t.Errorf("plain result %q for prompt %q missing from speculative outputs %v",
				want.Text, p, got)
		}
	}

	st := s.Stats()
	if st.SpecRounds == 0 || st.SpecDrafted == 0 {
		t.Fatalf("speculative server ran no drafting rounds: %+v", st)
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
}

// TestServeSpeculativeStochastic checks that stochastic strategies under the
// speculative server are deterministic per (request, seed) — rejection
// sampling redraws from the same seeded stream — and stop/budget contracts
// hold. (Distribution correctness is pinned by the chi-square test at the
// sample layer.)
func TestServeSpeculativeStochastic(t *testing.T) {
	m := testLLM(t)
	drafter := lm.DistillDrafter(m, 3, 300, 1)
	req := NewRequest("the king",
		sample.WithMaxTokens(8), sample.WithStrategy(sample.Temperature{T: 0.9}), sample.WithSeed(11))

	run := func() Result {
		s := New(m, Config{Speculate: 4, Drafter: lm.DistillDrafter(m, 3, 300, 1)})
		defer s.Close()
		res, err := s.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Text != b.Text || fmt.Sprint(a.Tokens) != fmt.Sprint(b.Tokens) {
		t.Fatalf("stochastic speculative serving not deterministic: %q vs %q", a.Text, b.Text)
	}
	if len(a.Tokens) == 0 || len(a.Tokens) > 8 {
		t.Fatalf("token budget violated: %d tokens", len(a.Tokens))
	}

	// Stop-at-EOS under speculation: the emitted stream must end at (and
	// trim) the stop token without overshooting the budget.
	s := New(m, Config{Speculate: 4, Drafter: drafter})
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
