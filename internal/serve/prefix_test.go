package serve

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/failpoint"
	"repro/internal/grammar"
	"repro/internal/lm"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/tokenizer"
	"repro/internal/transformer"
)

// This file checks the prefix KV cache from the serving loop's side, by
// counts and by bitwise comparison with lm.Gen — never by clocks: which
// requests prefill their whole prompt and which only their suffix, that
// served text does not depend on what the cache restored, and that faults
// leave the cache consistent.

// sysPromptTokens is the shared system prompt's length: twelve cache blocks.
const sysPromptTokens = 192

var (
	prefixOnce  sync.Once
	prefixModel *core.LLM
	prefixWords []string
)

// prefixLLM is an untrained word-level model with a window long enough for a
// system prompt (serving arithmetic does not depend on weight values), and
// the ordinary words of its vocabulary.
func prefixLLM() (*core.LLM, []string) {
	prefixOnce.Do(func() {
		tok := tokenizer.NewWord(corpus.PCFGText(grammar.TinyEnglish(), 200, 10, mathx.NewRNG(1)))
		prefixModel = &core.LLM{Tok: tok, Model: transformer.MustNew(transformer.Config{
			Vocab: tok.VocabSize(), Dim: 32, Layers: 2, Heads: 2, Window: 288,
			Pos: transformer.PosLearned, Act: nn.GELU,
		}, mathx.NewRNG(2))}
		for id := tokenizer.NumSpecial; id < tok.VocabSize(); id++ {
			prefixWords = append(prefixWords, tok.Token(id))
		}
	})
	return prefixModel, prefixWords
}

// sysPrompt is system prompt number p: sysPromptTokens seeded random words.
func sysPrompt(words []string, p int) string {
	rng := mathx.NewRNG(uint64(100 + p))
	out := make([]string, sysPromptTokens)
	for i := range out {
		out[i] = words[rng.Intn(len(words))]
	}
	return strings.Join(out, " ")
}

// suffix is request i's own part of the prompt: n copies of one word, a
// different word for each i, so no two requests share a block past the
// system prompt.
func suffix(words []string, i, n int) string {
	return strings.TrimSpace(strings.Repeat(words[i%len(words)]+" ", n))
}

// genOpts alternates greedy and top-k by request index, like the benchmark.
func genOpts(i, tokens int) []sample.Option {
	opts := []sample.Option{sample.WithMaxTokens(tokens), sample.WithSeed(uint64(i))}
	if i%2 == 1 {
		opts = append(opts, sample.WithStrategy(sample.TopK{K: 8, T: 0.8}))
	}
	return opts
}

// serveOne serves prompt — streamed on odd i, plain on even — and reports an
// error unless the result equals lm.Gen's for the same options bitwise. It
// is safe to call from a goroutine other than the test's.
func serveOne(t *testing.T, s *Server, m *core.LLM, i int, prompt string, opts []sample.Option) {
	t.Helper()
	want, err := lm.Gen(m, prompt, opts...)
	if err != nil {
		t.Errorf("request %d: reference: %v", i, err)
		return
	}
	var got Result
	if i%2 == 1 {
		var pieces strings.Builder
		got, err = s.Stream(context.Background(), NewRequest(prompt, opts...),
			func(ev sample.Token) error { pieces.WriteString(ev.Text); return nil })
		if err == nil && pieces.String() != got.Text {
			t.Errorf("request %d: streamed pieces %q != result %q", i, pieces.String(), got.Text)
		}
	} else {
		got, err = s.Do(context.Background(), NewRequest(prompt, opts...))
	}
	if err != nil {
		t.Errorf("request %d: %v", i, err)
		return
	}
	if got.Text != want.Text || !slices.Equal(got.Tokens, want.Tokens) {
		t.Errorf("request %d: served %q != lm.Gen %q", i, got.Text, want.Text)
	}
}

// TestPrefixWarmVsColdCounts serves requests that share a 192-token system
// prompt one after another. By the second-sighting rule the first two
// prefill everything; from the third on only the suffix goes through
// Prefill and the 192 shared positions are counted as restored. Throughout,
// PromptTokens + PrefixHitTokens equals the prompt tokens admitted, and
// every completion — greedy and top-k, streamed and not — equals lm.Gen's.
func TestPrefixWarmVsColdCounts(t *testing.T) {
	m, words := prefixLLM()
	s := New(m, Config{})
	defer s.Close()
	sys := sysPrompt(words, 0)
	admitted := uint64(0)
	for i := 0; i < 6; i++ {
		n := 20 + 7*i
		before := s.Stats()
		serveOne(t, s, m, i, sys+" "+suffix(words, i, n), genOpts(i, 4))
		st := s.Stats()
		admitted += uint64(sysPromptTokens + n)
		wantPrefilled, wantRestored := uint64(sysPromptTokens+n), uint64(0)
		if i >= 2 {
			wantPrefilled, wantRestored = uint64(n), sysPromptTokens
		}
		if got := st.PromptTokens - before.PromptTokens; got != wantPrefilled {
			t.Errorf("request %d: %d tokens went through Prefill, want %d", i, got, wantPrefilled)
		}
		if got := st.PrefixHitTokens - before.PrefixHitTokens; got != wantRestored {
			t.Errorf("request %d: %d positions restored, want %d", i, got, wantRestored)
		}
		if st.PromptTokens+st.PrefixHitTokens != admitted {
			t.Errorf("request %d: prompt_tokens %d + prefix_hit_tokens %d != %d prompt tokens admitted",
				i, st.PromptTokens, st.PrefixHitTokens, admitted)
		}
	}
	st := s.Stats()
	if st.PrefixLookups != 6 || st.PrefixHits != 4 {
		t.Errorf("prefix lookups %d, hits %d; want 6, 4", st.PrefixLookups, st.PrefixHits)
	}
	// Only the system prompt's twelve blocks were ever sighted twice.
	if st.PrefixBlocks != sysPromptTokens/16 || st.PrefixEvictions != 0 {
		t.Errorf("prefix blocks %d, evictions %d; want %d, 0", st.PrefixBlocks, st.PrefixEvictions, sysPromptTokens/16)
	}
}

// TestPrefixParityConcurrent serves rounds of concurrent requests over two
// system prompts, half of them top-k: later rounds run on a warm cache,
// batched with each other, and must still equal the cache-free reference
// bitwise.
func TestPrefixParityConcurrent(t *testing.T) {
	m, words := prefixLLM()
	s := New(m, Config{})
	const perRound, rounds = 6, 4
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < perRound; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				serveOne(t, s, m, i, sysPrompt(words, i%2)+" "+suffix(words, i, 18+i), genOpts(i, 6))
			}(i)
		}
		wg.Wait()
	}
	st := s.Stats()
	s.Close()
	if st.PrefixHits == 0 {
		t.Error("no prefix hits")
	}
	if st.Failed+st.Cancelled != 0 {
		t.Errorf("%d failed, %d cancelled", st.Failed, st.Cancelled)
	}
}

// gateStrategy is greedy sampling that parks the serving loop inside its
// second pick until released, which lets a test queue another request while
// this one is provably still in flight.
type gateStrategy struct {
	picks            int
	parked, released chan struct{}
}

func (g *gateStrategy) Pick(logits []float64, rng *mathx.RNG) int {
	if g.picks++; g.picks == 2 {
		close(g.parked)
		<-g.released
	}
	return sample.Greedy{}.Pick(logits, rng)
}

// TestPrefixFaultPublishesNothing injects a fault — an error, then a panic —
// at serve/prefill into the third pass of a request whose system prompt has
// been sighted once. Its two good passes published the four blocks they
// completed; the failed pass published nothing, the request alone was
// evicted, the request decoding beside it finished bitwise intact, and the
// cache went on to serve the prompt correctly.
func TestPrefixFaultPublishesNothing(t *testing.T) {
	m, words := prefixLLM()
	for _, kind := range []failpoint.Kind{failpoint.KindError, failpoint.KindPanic} {
		s := New(m, Config{})
		sys := sysPrompt(words, 0)
		serveOne(t, s, m, 0, sys+" "+suffix(words, 0, 20), genOpts(0, 4))

		// The bystander's one prefill pass is the site's first hit; the
		// victim's passes are hits two to four.
		if err := failpoint.Arm(failpoint.Plan{Seed: 1, Rules: []failpoint.Rule{
			{Site: failpoint.ServePrefill, Kind: kind, After: 3, Count: 1},
		}}); err != nil {
			t.Fatal(err)
		}
		gate := &gateStrategy{parked: make(chan struct{}), released: make(chan struct{})}
		var bystander Result
		var bystanderErr, victimErr error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			bystander, bystanderErr = s.Do(context.Background(), Request{Prompt: "the king", MaxTokens: 40, Strategy: gate})
		}()
		<-gate.parked
		go func() {
			defer wg.Done()
			_, victimErr = s.Do(context.Background(), NewRequest(sys+" "+suffix(words, 1, 20), genOpts(2, 4)...))
		}()
		waitStats(s, func(st Stats) bool { return st.Queued == 1 })
		close(gate.released)
		wg.Wait()
		failpoint.Disarm()

		if !errors.Is(victimErr, failpoint.ErrInjected) {
			t.Fatalf("kind %v: victim error = %v, want the injected fault", kind, victimErr)
		}
		want, err := lm.Gen(m, "the king", sample.WithMaxTokens(40))
		if err != nil {
			t.Fatal(err)
		}
		if bystanderErr != nil || bystander.Text != want.Text {
			t.Errorf("kind %v: bystander served %q (%v), want %q", kind, bystander.Text, bystanderErr, want.Text)
		}
		st := waitStats(s, func(st Stats) bool { return st.InFlight == 0 })
		if st.Failed != 1 || st.PrefixBlocks != 4 {
			t.Errorf("kind %v: failed %d, prefix blocks %d after two good 32-token passes; want 1, 4", kind, st.Failed, st.PrefixBlocks)
		}
		// The four published blocks are restored; the other eight are sighted
		// a second time by this request and cached for the next.
		for i, wantRestored := range []uint64{64, sysPromptTokens} {
			before := s.Stats().PrefixHitTokens
			serveOne(t, s, m, 2+i, sys+" "+suffix(words, 2+i, 20), genOpts(2+i, 4))
			if got := s.Stats().PrefixHitTokens - before; got != wantRestored {
				t.Errorf("kind %v: request %d after the fault restored %d positions, want %d", kind, i, got, wantRestored)
			}
		}
		checkInvariant(t, waitStats(s, func(st Stats) bool { return st.InFlight == 0 }))
		s.Close()
	}
}

// TestPrefixCacheDiscardedOnRebuild: a panic in the batched step fails the
// batch and rebuilds the predictor, and the prefix cache goes with it — the
// gauge returns to zero, the system prompt has to be sighted twice again,
// and everything served afterwards is still bitwise lm.Gen's.
func TestPrefixCacheDiscardedOnRebuild(t *testing.T) {
	m, words := prefixLLM()
	s := New(m, Config{})
	defer s.Close()
	sys := sysPrompt(words, 1)
	for i := 0; i < 3; i++ {
		serveOne(t, s, m, i, sys+" "+suffix(words, i, 20), genOpts(i, 4))
	}
	if st := s.Stats(); st.PrefixBlocks != sysPromptTokens/16 || st.PrefixHits != 1 {
		t.Fatalf("warm-up left %d blocks and %d hits, want %d and 1", st.PrefixBlocks, st.PrefixHits, sysPromptTokens/16)
	}
	if err := failpoint.Arm(failpoint.Plan{Seed: 1, Rules: []failpoint.Rule{
		{Site: failpoint.ServeStep, Kind: failpoint.KindPanic, Count: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Do(context.Background(), NewRequest(sys+" "+suffix(words, 3, 20), genOpts(3, 4)...))
	failpoint.Disarm()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want the step panic", err)
	}
	if st := s.Stats(); st.PrefixBlocks != 0 {
		t.Fatalf("%d prefix blocks after the predictor was rebuilt, want 0", st.PrefixBlocks)
	}
	for i, wantRestored := range []uint64{0, 0, sysPromptTokens} {
		before := s.Stats().PrefixHitTokens
		serveOne(t, s, m, 4+i, sys+" "+suffix(words, 4+i, 20), genOpts(4+i, 4))
		if got := s.Stats().PrefixHitTokens - before; got != wantRestored {
			t.Errorf("request %d after the rebuild restored %d positions, want %d", i, got, wantRestored)
		}
	}
	checkInvariant(t, waitStats(s, func(st Stats) bool { return st.InFlight == 0 }))
}
