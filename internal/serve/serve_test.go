package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/grammar"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/transformer"
)

// testModel trains one small LLM per test binary (training dominates test
// time, so it is shared; the model is read-only after training).
var (
	modelOnce sync.Once
	model     *core.LLM
)

func testLLM(t *testing.T) *core.LLM {
	t.Helper()
	modelOnce.Do(func() {
		lines := corpus.PCFGText(grammar.TinyEnglish(), 120, 10, mathx.NewRNG(11))
		m, _, err := core.Train(lines, core.Config{
			Tokenizer: core.WordTok,
			Model: transformer.Config{
				Dim: 16, Layers: 1, Heads: 2, Window: 16,
				Pos: transformer.PosLearned, Act: nn.GELU,
			},
			Steps: 30, BatchSize: 2, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		model = m
	})
	return model
}

// freeRun is the options of a free-running generation (no stop token): n
// tokens sampled with strat from the seed's stream.
func freeRun(n int, strat sample.Strategy, seed uint64) []sample.Option {
	return []sample.Option{sample.WithMaxTokens(n), sample.WithStrategy(strat), sample.WithSeed(seed)}
}

// TestBatchedMatchesUnbatched fires concurrent requests with different
// sampling strategies and seeds; every response must equal the serial
// lm.Gen result for the same parameters.
func TestBatchedMatchesUnbatched(t *testing.T) {
	m := testLLM(t)
	s := New(m, Config{MaxBatch: 4})
	defer s.Close()

	type job struct {
		prompt string
		n      int
		strat  sample.Strategy
		seed   uint64
	}
	jobs := []job{
		{"the king", 6, sample.Greedy{}, 0},
		{"a queen", 5, sample.Temperature{T: 0.8}, 1},
		{"the royal crown", 7, sample.TopK{K: 5, T: 0.9}, 2},
		{"the king", 4, sample.TopP{P: 0.9, T: 0.7}, 3},
		{"a king sees", 6, sample.Temperature{T: 1.2}, 4},
		{"the queen", 5, sample.Greedy{}, 5},
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		w, err := m.Gen(j.prompt, freeRun(j.n, j.strat, j.seed)...)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w.Text
	}
	got := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			got[i], errs[i] = s.Gen(context.Background(), j.prompt, freeRun(j.n, j.strat, j.seed)...)
		}(i, j)
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if got[i].Text != want[i] {
			t.Errorf("job %d: batched %q != serial %q", i, got[i].Text, want[i])
		}
	}
}

// TestServeParity is the schedule-independence property of serving on the
// real model: every strategy over six prompts, at MaxBatch 1, 4 and 8, with
// the requests arriving concurrently in a shuffled order, is served bitwise
// the completion lm.Gen gives. Which requests share a pass must not matter.
// Odd requests stream (serveOne checks the pieces concatenate to the
// result), and every third stops at EOS.
func TestServeParity(t *testing.T) {
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
			s := New(m, Config{MaxBatch: maxBatch})
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
			checkInvariant(t, waitStats(s, func(st Stats) bool { return st.InFlight == 0 }))
		})
	}
}

// TestRequestsAreBatched asserts the engine actually batches concurrent
// requests into shared steps rather than serializing them: while the first
// request's pass runs the others queue, and the top-up admits them all at
// the next iteration boundary.
func TestRequestsAreBatched(t *testing.T) {
	m := testLLM(t)
	s := newServer(m, Config{MaxBatch: 8})
	g := gate(t, s, 1)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Gen(context.Background(), "the king", freeRun(5, sample.Greedy{}, uint64(i))...); err != nil {
				t.Error(err)
			}
		}(i)
	}
	waitQueued(t, s, 5)
	g.open()
	wg.Wait()
	st := s.Stats()
	if st.Completed != 6 {
		t.Fatalf("Completed = %d", st.Completed)
	}
	if st.MaxBatch < 2 {
		t.Errorf("MaxBatch = %d: concurrent requests were never batched", st.MaxBatch)
	}
	if st.Steps == 0 || st.StepRows <= st.Steps {
		t.Errorf("Steps=%d StepRows=%d: no step carried more than one sequence",
			st.Steps, st.StepRows)
	}
}

func TestCancellationMidGeneration(t *testing.T) {
	m := testLLM(t)
	// Holding the lone request's first decode pass keeps it mid-generation
	// until after the cancel below, so the cancellation sweep (not a
	// finished result) must answer it.
	s := newServer(m, Config{MaxBatch: 4})
	g := gate(t, s, 2)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Do(ctx, Request{Prompt: "the king", MaxTokens: 15, Seed: 1})
		done <- err
	}()
	<-g.held
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request did not return")
	}
	g.open()
	if st := waitStats(s, func(st Stats) bool { return st.Cancelled == 1 }); st.Cancelled != 1 || st.Completed != 0 {
		t.Fatalf("Cancelled = %d, Completed = %d after the sweep, want 1, 0", st.Cancelled, st.Completed)
	}
	// The server keeps working after a cancellation.
	out, err := s.Gen(context.Background(), "the king", freeRun(3, sample.Greedy{}, 0)...)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := m.Gen("the king", freeRun(3, sample.Greedy{}, 0)...); out.Text != want.Text {
		t.Fatalf("post-cancel result %q != %q", out.Text, want.Text)
	}
}

func TestStopAtEOSMatchesComplete(t *testing.T) {
	m := testLLM(t)
	s := New(m, Config{})
	defer s.Close()
	res, err := s.Do(context.Background(), Request{
		Prompt: "the king", MaxTokens: 8, StopAtEOS: true, Seed: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := m.Complete("the king", 8); res.Text != want {
		t.Fatalf("StopAtEOS result %q != Complete %q", res.Text, want)
	}
}

func TestRequestValidation(t *testing.T) {
	m := testLLM(t)
	s := New(m, Config{})
	defer s.Close()
	if _, err := s.Do(context.Background(), Request{Prompt: "x", MaxTokens: 0}); err == nil {
		t.Error("MaxTokens=0 accepted")
	}
	// A budget of the whole window fits (the last token is never fed) and
	// serves lm.Gen's completion; one more does not.
	w := m.Model.Cfg.Window
	req := Request{Prompt: "the king", MaxTokens: w, Strategy: sample.Temperature{T: 0.8}, Seed: 1}
	res, err := s.Do(context.Background(), req)
	if err != nil {
		t.Fatalf("MaxTokens=window rejected: %v", err)
	}
	want, err := m.Gen(req.Prompt, freeRun(w, req.Strategy, req.Seed)...)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Tokens, want.Tokens) || res.Text != want.Text {
		t.Errorf("MaxTokens=window served %v %q, lm.Gen %v %q", res.Tokens, res.Text, want.Tokens, want.Text)
	}
	if _, err := s.Do(context.Background(), Request{Prompt: "x", MaxTokens: w + 1}); err == nil {
		t.Error("MaxTokens=window+1 accepted")
	}
	// A prompt that encodes to no tokens errors rather than hanging.
	if _, err := s.Do(context.Background(), Request{Prompt: "", MaxTokens: 3}); err == nil ||
		!strings.Contains(err.Error(), "encodes to no tokens") {
		t.Errorf("empty prompt: err = %v", err)
	}
}

func TestCloseFailsPending(t *testing.T) {
	m := testLLM(t)
	// Holding the first pass, with the other requests queued behind it,
	// keeps every request unanswered at Close.
	s := newServer(m, Config{MaxBatch: 16})
	g := gate(t, s, 1)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Do(context.Background(), Request{
				Prompt: "the king", MaxTokens: 14, Seed: uint64(i),
			})
			errCh <- err
		}(i)
	}
	waitQueued(t, s, 7)
	// Close waits for the loop, so it runs aside: every caller observes the
	// shutdown while the loop is still held, and the loop then fails its
	// batch and queue on its way out.
	shut := make(chan struct{})
	go func() {
		s.Close()
		close(shut)
	}()
	wg.Wait()
	g.open()
	<-shut
	close(errCh)
	closed := 0
	for err := range errCh {
		if errors.Is(err, ErrClosed) {
			closed++
		} else if err != nil {
			t.Errorf("unexpected error: %v", err)
		}
	}
	if closed != 8 {
		t.Errorf("got %d ErrClosed replies, want 8", closed)
	}
	if _, err := s.Do(context.Background(), Request{Prompt: "x", MaxTokens: 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close err = %v, want ErrClosed", err)
	}
}

// TestManyConcurrentMixedRequests is a stress pass: more requests than
// MaxBatch with mixed budgets, all answers checked against the serial path.
func TestManyConcurrentMixedRequests(t *testing.T) {
	m := testLLM(t)
	s := New(m, Config{MaxBatch: 3, QueueDepth: 4})
	defer s.Close()
	const n = 20
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			budget := 2 + i%7
			seed := uint64(i)
			want, err := m.Gen("the king", freeRun(budget, sample.Temperature{T: 0.9}, seed)...)
			if err != nil {
				t.Error(err)
				return
			}
			got, err := s.Gen(context.Background(), "the king", freeRun(budget, sample.Temperature{T: 0.9}, seed)...)
			if err != nil {
				t.Error(err)
				return
			}
			if got.Text != want.Text {
				t.Errorf("req %d: %q != %q", i, got.Text, want.Text)
			}
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if st.Completed != n {
		t.Fatalf("Completed = %d, want %d", st.Completed, n)
	}
}

func TestGenerateUnknownPromptTokens(t *testing.T) {
	m := testLLM(t)
	s := New(m, Config{})
	defer s.Close()
	// A prompt of known words mixed with punctuation the word tokenizer
	// drops should still work through the window-truncation path.
	out, err := s.Gen(context.Background(), "the king!", freeRun(3, sample.Greedy{}, 0)...)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := m.Gen("the king!", freeRun(3, sample.Greedy{}, 0)...); out.Text != want.Text {
		t.Fatalf("%q != %q", out.Text, want.Text)
	}
}

// TestStatsCountBeforeReply pins the accounting order: a terminal counter is
// bumped before the reply is delivered, so the instant a call returns Stats
// already holds its outcome — at least as many terminal outcomes as calls
// that have returned.
func TestStatsCountBeforeReply(t *testing.T) {
	m := testLLM(t)
	s := New(m, Config{MaxBatch: 4})
	defer s.Close()
	const n = 32
	var returned atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Gen(context.Background(), "the king", freeRun(1+i%3, sample.Greedy{}, uint64(i))...); err != nil {
				t.Error(err)
			}
			back := returned.Add(1)
			st := s.Stats()
			if done := st.Completed + st.Cancelled + st.Failed; done < back {
				t.Errorf("%d calls have returned but Stats counts %d terminal outcomes", back, done)
			}
		}(i)
	}
	wg.Wait()
}
