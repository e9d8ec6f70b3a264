package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/lm"
	"repro/internal/mathx"
	"repro/internal/sample"
)

// bombStrategy picks greedily until its fuse runs out, then panics — the
// organic stand-in for any bug that detonates inside one request's sampling
// path while it shares a batch with healthy requests.
type bombStrategy struct {
	fuse  int
	picks int
}

func (b *bombStrategy) Pick(logits []float64, rng *mathx.RNG) int {
	b.picks++
	if b.picks > b.fuse {
		panic("bomb: strategy detonated")
	}
	i, _ := mathx.ArgMax(logits)
	return i
}

// checkInvariant asserts the terminal-outcome ledger once the server idles:
// every accepted request reached exactly one of Completed/Cancelled/Failed.
func checkInvariant(t *testing.T, st Stats) {
	t.Helper()
	if st.Requests != st.Completed+st.Cancelled+st.Failed {
		t.Errorf("lost requests: %d accepted != %d completed + %d cancelled + %d failed",
			st.Requests, st.Completed, st.Cancelled, st.Failed)
	}
}

// TestPanicIsolationBitwiseIntact: one request whose sampling strategy
// panics mid-batch fails alone; the other in-flight requests complete with
// output bitwise identical to the fault-free serial path, and the server
// keeps serving afterwards.
func TestPanicIsolationBitwiseIntact(t *testing.T) {
	m := testLLM(t)
	s := New(m, Config{MaxBatch: 4, CoalesceWait: 50 * time.Millisecond})
	defer s.Close()

	type job struct {
		prompt string
		n      int
		seed   uint64
	}
	jobs := []job{
		{"the king", 6, 1},
		{"a queen", 5, 2},
		{"the royal crown", 7, 3},
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		w, err := m.Generate(j.prompt, j.n, sample.Temperature{T: 0.8}, j.seed)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}

	got := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	var victimErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, victimErr = s.Do(context.Background(), Request{
			Prompt: "the king", MaxTokens: 8, Strategy: &bombStrategy{fuse: 2},
		})
	}()
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			got[i], errs[i] = s.Generate(context.Background(), j.prompt, j.n, sample.Temperature{T: 0.8}, j.seed)
		}(i, j)
	}
	wg.Wait()

	var pe *PanicError
	if !errors.As(victimErr, &pe) {
		t.Fatalf("victim error = %v, want *PanicError", victimErr)
	}
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("bystander %d failed: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("bystander %d: batched %q != fault-free serial %q", i, got[i], want[i])
		}
	}
	// The worker survived: a fresh request completes normally.
	if _, err := s.Generate(context.Background(), "the queen", 4, sample.Greedy{}, 9); err != nil {
		t.Fatalf("server dead after panic: %v", err)
	}
	st := waitStats(s, func(st Stats) bool { return st.InFlight == 0 })
	if st.Panics != 1 || st.Failed != 1 {
		t.Errorf("Panics = %d, Failed = %d, want 1, 1", st.Panics, st.Failed)
	}
	if st.Completed != uint64(len(jobs))+1 {
		t.Errorf("Completed = %d, want %d", st.Completed, len(jobs)+1)
	}
	checkInvariant(t, st)
}

// TestStepPanicFailsBatchAndRecovers: a panic inside the batched decode step
// cannot be pinned on one request, so the whole active batch fails — but the
// loop rebuilds its predictor and the next request decodes correctly.
func TestStepPanicFailsBatchAndRecovers(t *testing.T) {
	m := testLLM(t)
	if err := failpoint.Arm(failpoint.Plan{Seed: 1, Rules: []failpoint.Rule{
		{Site: failpoint.ServeStep, Kind: failpoint.KindPanic, Count: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()

	s := New(m, Config{MaxBatch: 4, CoalesceWait: 50 * time.Millisecond})
	defer s.Close()

	const n = 3
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Generate(context.Background(), "the king sees", 5, sample.Greedy{}, uint64(i))
		}(i)
	}
	wg.Wait()

	failed := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		failed++
		if !errors.Is(err, failpoint.ErrInjected) {
			t.Errorf("request %d failed with %v, not the injected fault", i, err)
		}
	}
	if failed == 0 {
		t.Fatal("step panic fired but no request failed")
	}
	failpoint.Disarm()

	// Recovery: the rebuilt predictor decodes bitwise-correctly.
	want, err := m.Generate("the queen", 5, sample.Greedy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Generate(context.Background(), "the queen", 5, sample.Greedy{}, 0)
	if err != nil {
		t.Fatalf("server did not recover from step panic: %v", err)
	}
	if got != want {
		t.Errorf("post-recovery output %q != direct %q", got, want)
	}
	st := waitStats(s, func(st Stats) bool { return st.InFlight == 0 })
	if st.Panics != uint64(failed) {
		t.Errorf("Panics = %d, want %d (one per batch victim)", st.Panics, failed)
	}
	checkInvariant(t, st)
}

// TestRequestDeadline: a request that overruns its Timeout fails with
// ErrDeadline between decode steps, charged to Failed/Deadlined — and the
// server-wide Config.RequestTimeout default applies when the request does
// not carry its own.
func TestRequestDeadline(t *testing.T) {
	m := testLLM(t)
	if err := failpoint.Arm(failpoint.Plan{Seed: 1, Rules: []failpoint.Rule{
		{Site: failpoint.ServeStep, Kind: failpoint.KindLatency, Sleep: 10 * time.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()

	s := New(m, Config{RequestTimeout: 40 * time.Millisecond})
	defer s.Close()

	// Per-request timeout.
	_, err := s.Do(context.Background(), Request{
		Prompt: "the king", MaxTokens: 14, Timeout: 30 * time.Millisecond,
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	// Server-wide default.
	_, err = s.Do(context.Background(), Request{Prompt: "the king", MaxTokens: 14})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("default-timeout err = %v, want ErrDeadline", err)
	}
	st := waitStats(s, func(st Stats) bool { return st.InFlight == 0 })
	if st.Deadlined != 2 || st.Failed != 2 {
		t.Errorf("Deadlined = %d, Failed = %d, want 2, 2", st.Deadlined, st.Failed)
	}
	checkInvariant(t, st)

	// Within budget the same request completes.
	failpoint.Disarm()
	if _, err := s.Do(context.Background(), Request{
		Prompt: "the king", MaxTokens: 5, Timeout: 5 * time.Second,
	}); err != nil {
		t.Fatalf("in-budget request failed: %v", err)
	}
}

// TestStallWatchdog: a stream that stops making token progress — here the
// loop is wedged inside a slow decode step — is killed by the watchdog with
// ErrStalled even though the loop goroutine itself cannot observe anything.
func TestStallWatchdog(t *testing.T) {
	m := testLLM(t)
	if err := failpoint.Arm(failpoint.Plan{Seed: 1, Rules: []failpoint.Rule{
		{Site: failpoint.ServeStep, Kind: failpoint.KindLatency, Sleep: 250 * time.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()

	s := New(m, Config{StallTimeout: 40 * time.Millisecond})
	defer s.Close()

	start := time.Now()
	_, err := s.Do(context.Background(), Request{Prompt: "the king", MaxTokens: 10})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	// The caller was released by the watchdog, not by the wedged loop.
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Errorf("stalled request took %v to fail, watchdog should fire at ~40ms", d)
	}
	failpoint.Disarm()
	// Wait out the wedged step: the loop is still inside the injected sleep,
	// and a request queued behind it would be (correctly) stall-killed too.
	st := waitStats(s, func(st Stats) bool { return st.InFlight == 0 })
	if st.Stalled != 1 {
		t.Errorf("Stalled = %d, want 1", st.Stalled)
	}
	checkInvariant(t, st)
	// A healthy request keeps the stamps fresh and completes.
	if _, err := s.Do(context.Background(), Request{Prompt: "the queen", MaxTokens: 5}); err != nil {
		t.Fatalf("post-stall request failed: %v", err)
	}
}

// TestAdmissionValidation: malformed strategy parameters and negative
// timeouts are rejected at the door with an error — they used to reach the
// panic guards inside internal/sample from the middle of the batch loop.
func TestAdmissionValidation(t *testing.T) {
	m := testLLM(t)
	s := New(m, Config{})
	defer s.Close()

	bad := []Request{
		{Prompt: "the king", MaxTokens: 5, Strategy: sample.Temperature{T: 0}},
		{Prompt: "the king", MaxTokens: 5, Strategy: sample.Temperature{T: -1}},
		{Prompt: "the king", MaxTokens: 5, Strategy: sample.TopK{K: -1, T: 0.8}},
		{Prompt: "the king", MaxTokens: 5, Strategy: sample.TopK{K: 5, T: -0.5}},
		{Prompt: "the king", MaxTokens: 5, Strategy: sample.TopP{P: 1.5, T: 0.8}},
		{Prompt: "the king", MaxTokens: 5, Strategy: sample.TopP{P: -0.1, T: 0.8}},
		{Prompt: "the king", MaxTokens: 5, Timeout: -time.Second},
	}
	for i, req := range bad {
		if _, err := s.Do(context.Background(), req); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
	if st := s.Stats(); st.Requests != 0 {
		t.Errorf("rejected requests were counted as accepted: %+v", st)
	}
	// The well-formed variants pass.
	good := []Request{
		{Prompt: "the king", MaxTokens: 3, Strategy: sample.Temperature{T: 0.8}},
		{Prompt: "the king", MaxTokens: 3, Strategy: sample.TopK{K: 5, T: 0.8}},
		{Prompt: "the king", MaxTokens: 3, Strategy: sample.TopP{P: 0.9, T: 0.8}},
	}
	for i, req := range good {
		if _, err := s.Do(context.Background(), req); err != nil {
			t.Errorf("good request %d rejected: %v", i, err)
		}
	}
}

// TestBackendPanicIsolation: a non-transformer backend survives a panicking
// request the same way the transformer does.
func TestBackendPanicIsolation(t *testing.T) {
	b := testBackend(t)
	s := NewBackend(b, Config{})
	defer s.Close()

	_, err := s.Do(context.Background(), Request{
		Prompt: "the king", MaxTokens: 6, Strategy: &bombStrategy{fuse: 2},
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if _, err := s.Do(context.Background(), Request{Prompt: "the king", MaxTokens: 4}); err != nil {
		t.Fatalf("loop dead after panic: %v", err)
	}
	st := waitStats(s, func(st Stats) bool { return st.InFlight == 0 })
	if st.Panics != 1 || st.Completed != 1 {
		t.Errorf("Panics = %d, Completed = %d, want 1, 1", st.Panics, st.Completed)
	}
	checkInvariant(t, st)
}

// decodeBomb is a backend whose Decode panics once.
type decodeBomb struct {
	lm.LanguageModel
	armed *atomic.Bool
}

func (d decodeBomb) Decode(ids []int) string {
	if d.armed.Swap(false) {
		panic("decodeBomb: detonated")
	}
	return d.LanguageModel.Decode(ids)
}

// TestFinishPanicIsolation: a panic while decoding a finished request's text
// — past every predictor and sampling call — fails that request alone.
func TestFinishPanicIsolation(t *testing.T) {
	armed := new(atomic.Bool)
	armed.Store(true)
	s := NewBackend(decodeBomb{testBackend(t), armed}, Config{})
	defer s.Close()

	_, err := s.Do(context.Background(), Request{Prompt: "the king", MaxTokens: 3})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Site != "finish" {
		t.Fatalf("err = %v, want a *PanicError at finish", err)
	}
	if _, err := s.Do(context.Background(), Request{Prompt: "the king", MaxTokens: 3}); err != nil {
		t.Fatalf("loop dead after panic: %v", err)
	}
	st := waitStats(s, func(st Stats) bool { return st.InFlight == 0 })
	if st.Panics != 1 || st.Failed != 1 || st.Completed != 1 {
		t.Errorf("Panics = %d, Failed = %d, Completed = %d, want 1, 1, 1", st.Panics, st.Failed, st.Completed)
	}
	checkInvariant(t, st)
}

// TestFailpointSitesInLoop: every serve-loop site actually evaluates its
// failpoint — an error rule at each site fails a request with the injected
// error rather than being silently skipped.
func TestFailpointSitesInLoop(t *testing.T) {
	m := testLLM(t)
	for _, site := range []string{failpoint.ServePrefill, failpoint.ServeSample, failpoint.ServeStep} {
		t.Run(site, func(t *testing.T) {
			if err := failpoint.Arm(failpoint.Plan{Seed: 1, Rules: []failpoint.Rule{
				{Site: site, Kind: failpoint.KindError, Count: 1},
			}}); err != nil {
				t.Fatal(err)
			}
			defer failpoint.Disarm()
			s := New(m, Config{})
			defer s.Close()
			_, err := s.Do(context.Background(), Request{Prompt: "the king", MaxTokens: 5})
			if !errors.Is(err, failpoint.ErrInjected) {
				t.Fatalf("site %s: err = %v, want the injected error", site, err)
			}
			hits := failpoint.Stats()[site]
			if hits.Fired != 1 {
				t.Fatalf("site %s: fired %d, want 1", site, hits.Fired)
			}
			st := waitStats(s, func(st Stats) bool { return st.InFlight == 0 })
			checkInvariant(t, st)
		})
	}
}

// TestFailpointVerifySite: the serve/verify site fires inside the
// speculative round and fails only its round's request.
func TestFailpointVerifySite(t *testing.T) {
	m := testLLM(t)
	if err := failpoint.Arm(failpoint.Plan{Seed: 1, Rules: []failpoint.Rule{
		{Site: failpoint.ServeVerify, Kind: failpoint.KindError, Count: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()
	s := New(m, Config{Speculate: 3, Drafter: lm.DistillDrafter(m, 3, 300, 1)})
	defer s.Close()
	_, err := s.Do(context.Background(), Request{Prompt: "the king", MaxTokens: 6})
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("err = %v, want the injected error", err)
	}
	failpoint.Disarm()
	want, err := m.Generate("the queen", 5, sample.Greedy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Generate(context.Background(), "the queen", 5, sample.Greedy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("post-fault speculative output %q != direct %q", got, want)
	}
}
