package serve

import (
	"context"
	"errors"
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

// TestBatchedMatchesUnbatched fires concurrent requests with different
// sampling strategies and seeds; every response must equal the serial
// core.LLM.Generate result for the same parameters.
func TestBatchedMatchesUnbatched(t *testing.T) {
	m := testLLM(t)
	s := New(m, Config{MaxBatch: 4, CoalesceWait: 30 * time.Millisecond})
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
		w, err := m.Generate(j.prompt, j.n, j.strat, j.seed)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	got := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			got[i], errs[i] = s.Generate(context.Background(), j.prompt, j.n, j.strat, j.seed)
		}(i, j)
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("job %d: batched %q != serial %q", i, got[i], want[i])
		}
	}
}

// TestRequestsAreBatched asserts the engine actually coalesces concurrent
// requests into shared steps rather than serializing them.
func TestRequestsAreBatched(t *testing.T) {
	m := testLLM(t)
	s := New(m, Config{MaxBatch: 8, CoalesceWait: 100 * time.Millisecond})
	defer s.Close()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Generate(context.Background(), "the king", 5, sample.Greedy{}, uint64(i)); err != nil {
				t.Error(err)
			}
		}(i)
	}
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
	// A long coalesce window keeps the lone request admitted-but-undecoded
	// until well after the cancel below, so the cancellation sweep (not a
	// finished result) must answer it.
	s := New(m, Config{MaxBatch: 4, CoalesceWait: 300 * time.Millisecond})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Do(ctx, Request{Prompt: "the king", MaxTokens: 15, Seed: 1})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request did not return")
	}
	// The server keeps working after a cancellation.
	out, err := s.Generate(context.Background(), "the king", 3, sample.Greedy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := m.Generate("the king", 3, sample.Greedy{}, 0); out != want {
		t.Fatalf("post-cancel result %q != %q", out, want)
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
	w := m.Model.Cfg.Window
	if _, err := s.Do(context.Background(), Request{Prompt: "x", MaxTokens: w}); err == nil {
		t.Error("MaxTokens=window accepted")
	}
	// A prompt that encodes to no tokens errors rather than hanging.
	if _, err := s.Do(context.Background(), Request{Prompt: "", MaxTokens: 3}); err == nil ||
		!strings.Contains(err.Error(), "encodes to no tokens") {
		t.Errorf("empty prompt: err = %v", err)
	}
}

func TestCloseFailsPending(t *testing.T) {
	m := testLLM(t)
	// MaxBatch above the request count keeps the batch lingering in the
	// coalesce window, so every request is still unanswered at Close.
	s := New(m, Config{MaxBatch: 16, CoalesceWait: 300 * time.Millisecond})
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
	time.Sleep(10 * time.Millisecond)
	s.Close()
	wg.Wait()
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
	s := New(m, Config{MaxBatch: 3, CoalesceWait: 10 * time.Millisecond, QueueDepth: 4})
	defer s.Close()
	const n = 20
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			budget := 2 + i%7
			seed := uint64(i)
			want, err := m.Generate("the king", budget, sample.Temperature{T: 0.9}, seed)
			if err != nil {
				t.Error(err)
				return
			}
			got, err := s.Generate(context.Background(), "the king", budget, sample.Temperature{T: 0.9}, seed)
			if err != nil {
				t.Error(err)
				return
			}
			if got != want {
				t.Errorf("req %d: %q != %q", i, got, want)
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
	out, err := s.Generate(context.Background(), "the king!", 3, sample.Greedy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := m.Generate("the king!", 3, sample.Greedy{}, 0); out != want {
		t.Fatalf("%q != %q", out, want)
	}
}

// TestStatsCountBeforeReply pins the accounting order: a terminal counter is
// bumped before the reply is delivered, so the instant a call returns Stats
// already holds its outcome — at least as many terminal outcomes as calls
// that have returned.
func TestStatsCountBeforeReply(t *testing.T) {
	m := testLLM(t)
	s := New(m, Config{MaxBatch: 4, CoalesceWait: time.Millisecond})
	defer s.Close()
	const n = 32
	var returned atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Generate(context.Background(), "the king", 1+i%3, sample.Greedy{}, uint64(i)); err != nil {
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
