package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/sample"
)

// TestServerDecodeStepAllocsBounded bounds the serving loop's steady-state
// cost: one non-streaming request of many tokens is dominated by decode
// steps, and with the predictor arena, the decoder's sampling scratch, and
// the loop's reused step buffers, the amortized allocations per generated
// token must stay small and — crucially — independent of position. The
// bound is deliberately loose (request admission, channel plumbing, and the
// result all allocate once per request); what it catches is a regression
// back to per-token slice churn, which lands at dozens of allocations per
// token.
func TestServerDecodeStepAllocsBounded(t *testing.T) {
	model := testLLM(t)
	s := New(model, Config{MaxBatch: 4, CoalesceWait: -1})
	defer s.Close()
	const tokens = 12
	req := Request{Prompt: "the king", MaxTokens: tokens, Strategy: sample.TopP{P: 0.9, T: 0.8}, Seed: 5}
	do := func() {
		if _, err := s.Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	do() // warm the loop, the batch slot, and every scratch arena
	allocs := testing.AllocsPerRun(20, do)
	perToken := allocs / tokens
	t.Logf("%.2f allocations per token (%.0f per request)", perToken, allocs)
	if perToken > 8 {
		t.Errorf("server decode allocates %.1f per token (%.0f per request), want <= 8",
			perToken, allocs)
	}
}

// TestServerConcurrentDecodeAllocsBounded is the wide-batch form of the
// bound above: a full burst of concurrent requests decoding together (the
// cross-sequence GEMM step at MaxBatch rows) must keep amortized per-token
// allocations small — the shared step scratch grows once for the burst
// width and is reused, so batching must not reintroduce per-row churn.
func TestServerConcurrentDecodeAllocsBounded(t *testing.T) {
	model := testLLM(t)
	s := New(model, Config{MaxBatch: 8, CoalesceWait: 2 * time.Millisecond})
	defer s.Close()
	const load, tokens = 8, 10
	burst := func() {
		var wg sync.WaitGroup
		for j := 0; j < load; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				req := Request{Prompt: "the king", MaxTokens: tokens,
					Strategy: sample.Temperature{T: 0.9}, Seed: uint64(j)}
				if _, err := s.Do(context.Background(), req); err != nil {
					t.Error(err)
				}
			}(j)
		}
		wg.Wait()
	}
	burst() // warm the loop, all batch slots, and the step arena
	allocs := testing.AllocsPerRun(10, burst)
	perToken := allocs / (load * tokens)
	t.Logf("%.2f allocations per token (%.0f per burst)", perToken, allocs)
	if perToken > 12 {
		t.Errorf("concurrent decode allocates %.1f per token (%.0f per burst), want <= 12",
			perToken, allocs)
	}
}

// TestServerDecodeStepAllocsFlat verifies the per-token allocation cost
// does not grow with the generation length (i.e. nothing per-step scales
// with position): doubling MaxTokens must not double per-token allocations.
func TestServerDecodeStepAllocsFlat(t *testing.T) {
	model := testLLM(t)
	s := New(model, Config{MaxBatch: 4, CoalesceWait: time.Millisecond})
	defer s.Close()
	perToken := func(n int) float64 {
		req := Request{Prompt: "the king", MaxTokens: n, Strategy: sample.Temperature{T: 0.9}, Seed: 7}
		if _, err := s.Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := s.Do(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		})
		return allocs / float64(n)
	}
	short := perToken(6)
	long := perToken(12)
	t.Logf("%.2f allocations per token at n=6, %.2f at n=12", short, long)
	if long > 4*short+8 {
		t.Errorf("per-token allocations grew with length: %.1f at n=6 vs %.1f at n=12", short, long)
	}
}
