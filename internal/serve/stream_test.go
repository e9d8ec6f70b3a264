package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lm"
	"repro/internal/sample"
)

// TestStreamMatchesUnbatched is the tentpole acceptance test: streamed
// output — both the per-token pieces and the final text — is bitwise
// identical to the unbatched path, for concurrent requests with mixed
// strategies flowing through the continuous-batching loop.
func TestStreamMatchesUnbatched(t *testing.T) {
	m := testLLM(t)
	s := newServer(m, Config{MaxBatch: 4})
	g := gate(t, s, 1)

	type job struct {
		prompt string
		opts   []sample.Option
	}
	jobs := []job{
		{"the king", []sample.Option{sample.WithMaxTokens(6), sample.WithSeed(0)}},
		{"a queen", []sample.Option{sample.WithMaxTokens(5), sample.WithStrategy(sample.Temperature{T: 0.8}), sample.WithSeed(1)}},
		{"the royal crown", []sample.Option{sample.WithMaxTokens(7), sample.WithStrategy(sample.TopK{K: 5, T: 0.9}), sample.WithSeed(2)}},
		{"the king", []sample.Option{sample.WithMaxTokens(4), sample.WithStrategy(sample.TopP{P: 0.9, T: 0.7}), sample.WithSeed(3)}},
		{"a king sees", []sample.Option{sample.WithMaxTokens(6), sample.WithStrategy(sample.Temperature{T: 1.2}), sample.WithSeed(4)}},
	}
	// Reference: the direct unbatched driver.
	want := make([]lm.Result, len(jobs))
	for i, j := range jobs {
		r, err := lm.Gen(m, j.prompt, j.opts...)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			var pieces []string
			res, err := s.Stream(context.Background(), NewRequest(j.prompt, j.opts...), func(tok sample.Token) error {
				pieces = append(pieces, tok.Text)
				return nil
			})
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			if res.Text != want[i].Text {
				t.Errorf("job %d: streamed result %q != unbatched %q", i, res.Text, want[i].Text)
			}
			if got := strings.Join(pieces, ""); got != want[i].Text {
				t.Errorf("job %d: concatenated pieces %q != unbatched %q", i, got, want[i].Text)
			}
			if len(pieces) != len(want[i].Tokens) {
				t.Errorf("job %d: %d events, want %d", i, len(pieces), len(want[i].Tokens))
			}
		}(i, j)
	}
	// The first job's pass is held until the rest are queued, so the top-up
	// admits them together at the next iteration boundary.
	waitQueued(t, s, len(jobs)-1)
	g.open()
	wg.Wait()
	// The streamed requests really did share batched steps.
	if st := s.Stats(); st.MaxBatch < 2 {
		t.Errorf("MaxBatch = %d: streamed requests were never batched", st.MaxBatch)
	}
}

// TestStreamDirectPathMatchesServer cross-checks the two streaming paths
// (lm.Stream and Server.Stream) event by event.
func TestStreamDirectPathMatchesServer(t *testing.T) {
	m := testLLM(t)
	s := New(m, Config{})
	defer s.Close()
	opts := []sample.Option{
		sample.WithMaxTokens(6), sample.WithStrategy(sample.Temperature{T: 0.9}), sample.WithSeed(7),
	}
	var direct, batched []sample.Token
	if _, err := lm.Stream(context.Background(), m, "the king", func(tok sample.Token) error {
		direct = append(direct, tok)
		return nil
	}, opts...); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stream(context.Background(), NewRequest("the king", opts...), func(tok sample.Token) error {
		batched = append(batched, tok)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(batched) {
		t.Fatalf("event counts differ: direct %d, server %d", len(direct), len(batched))
	}
	for i := range direct {
		if direct[i] != batched[i] {
			t.Errorf("event %d: direct %+v != server %+v", i, direct[i], batched[i])
		}
	}
}

func TestStreamStopAtEOS(t *testing.T) {
	m := testLLM(t)
	s := New(m, Config{})
	defer s.Close()
	var pieces []string
	res, err := s.Stream(context.Background(),
		NewRequest("the king", sample.WithMaxTokens(8), sample.WithStop()),
		func(tok sample.Token) error {
			pieces = append(pieces, tok.Text)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if want := m.Complete("the king", 8); res.Text != want {
		t.Fatalf("streamed StopAtEOS %q != Complete %q", res.Text, want)
	}
	if got := strings.Join(pieces, ""); got != res.Text {
		t.Fatalf("pieces %q != final %q", got, res.Text)
	}
}

// TestStreamCallbackErrorCancels: an erroring consumer drops the request
// from the batch and surfaces the callback error.
func TestStreamCallbackErrorCancels(t *testing.T) {
	m := testLLM(t)
	s := New(m, Config{})
	defer s.Close()
	boom := errors.New("consumer failed")
	events := 0
	_, err := s.Stream(context.Background(),
		NewRequest("the king", sample.WithMaxTokens(10), sample.WithSeed(1)),
		func(sample.Token) error {
			events++
			return boom
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want callback error", err)
	}
	if events != 1 {
		t.Fatalf("callback ran %d times, want 1", events)
	}
	// The server keeps serving afterwards.
	if _, err := s.Gen(context.Background(), "the king", sample.WithMaxTokens(3)); err != nil {
		t.Fatal(err)
	}
}

// TestCancellationDuringPrefill cancels a request after admission but
// before its first decode step (its prompt spans several chunks and the
// first chunk's pass is held), exercising the prefill-phase cancellation
// path.
func TestCancellationDuringPrefill(t *testing.T) {
	m := testLLM(t)
	s := newServer(m, Config{MaxBatch: 4, PrefillChunk: 2})
	g := gate(t, s, 1)
	ctx, cancel := context.WithCancel(context.Background())
	events := 0
	done := make(chan error, 1)
	go func() {
		_, err := s.Stream(ctx,
			NewRequest("the king sees the royal crown", sample.WithMaxTokens(10), sample.WithSeed(1)),
			func(sample.Token) error {
				events++
				return nil
			})
		done <- err
	}()
	<-g.held // admitted, first prompt chunk in the held pass
	if st := s.Stats(); st.Steps != 0 {
		t.Fatalf("decode already started (Steps=%d)", st.Steps)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled prefill request did not return")
	}
	if events != 0 {
		t.Fatalf("cancelled-before-decode request delivered %d token events", events)
	}
	// The caller returns on ctx.Done; the loop's cancellation sweep counts
	// the drop once the held pass ends, with the prompt only partly fed and
	// no token sampled. Wait for it.
	g.open()
	st := waitStats(s, func(st Stats) bool { return st.Cancelled == 1 })
	if st.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", st.Cancelled)
	}
	if st.Steps != 0 || st.DecodeTokens != 0 {
		t.Fatalf("Steps = %d, DecodeTokens = %d: the request left prefill before the sweep", st.Steps, st.DecodeTokens)
	}
	// The loop recovered and the next request decodes normally.
	out, err := s.Gen(context.Background(), "the king", sample.WithMaxTokens(3))
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := m.Gen("the king", freeRun(3, sample.Greedy{}, 0)...); out.Text != want.Text {
		t.Fatalf("post-cancel result %q != %q", out.Text, want.Text)
	}
}

// TestStatsUnderConcurrentLoad checks the counter invariants with plain,
// streamed, and cancelled requests in flight at once.
func TestStatsUnderConcurrentLoad(t *testing.T) {
	m := testLLM(t)
	cfg := Config{MaxBatch: 3, QueueDepth: 4}
	s := newServer(m, cfg)
	g := gate(t, s, 1)
	const n = 18
	var wg sync.WaitGroup
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := []sample.Option{
				sample.WithMaxTokens(2 + i%5),
				sample.WithStrategy(sample.Temperature{T: 0.9}),
				sample.WithSeed(uint64(i)),
			}
			switch i % 3 {
			case 0: // plain
				if _, err := s.Gen(context.Background(), "the king", opts...); err != nil {
					t.Error(err)
				}
			case 1: // streamed
				if _, err := s.Stream(context.Background(), NewRequest("a queen", opts...),
					func(sample.Token) error { return nil }); err != nil {
					t.Error(err)
				}
			case 2: // cancelled almost immediately
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					time.Sleep(time.Millisecond)
					cancel()
				}()
				_, err := s.Gen(ctx, "the royal king", opts...)
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Error(err)
				}
			}
		}()
	}
	// Request 1 (budget 3) takes the held first pass. The other plain and
	// streamed requests fill the queue behind it before the cancelled ones
	// start, so the top-up admits two live requests while request 1 still
	// decodes: they share a pass, and MaxBatch >= 2 does not depend on
	// timing.
	submit(1)
	<-g.held
	for i := 0; i < n; i++ {
		if i != 1 && i%3 != 2 {
			submit(i)
		}
	}
	waitQueued(t, s, cfg.QueueDepth)
	for i := 2; i < n; i += 3 {
		submit(i)
	}
	g.open()
	wg.Wait()
	// Let the loop finish its final accounting sweep.
	st := waitStats(s, func(st Stats) bool { return st.InFlight == 0 })
	if st.Requests != n {
		t.Errorf("Requests = %d, want %d", st.Requests, n)
	}
	if got := st.Completed + st.Cancelled + st.Failed; got != st.Requests {
		t.Errorf("Completed+Cancelled+Failed = %d, want Requests = %d (%+v)", got, st.Requests, st)
	}
	if st.Failed != 0 {
		t.Errorf("Failed = %d, want 0 (%+v)", st.Failed, st)
	}
	if st.Steps == 0 || st.StepRows < st.Steps {
		t.Errorf("Steps=%d StepRows=%d: inconsistent", st.Steps, st.StepRows)
	}
	if st.MaxBatch < 2 || st.MaxBatch > cfg.MaxBatch {
		t.Errorf("MaxBatch = %d, want in [2, %d]", st.MaxBatch, cfg.MaxBatch)
	}
	// The prompt/decode split: every decode row samples one token, every
	// completed request additionally sampled its first token from prefill
	// logits (cancelled requests may or may not have reached that point),
	// and the completed requests' prompts all went through prefill.
	if st.DecodeTokens < st.StepRows+st.Completed || st.DecodeTokens > st.StepRows+st.Requests {
		t.Errorf("DecodeTokens = %d, want in [StepRows+Completed, StepRows+Requests] = [%d, %d]",
			st.DecodeTokens, st.StepRows+st.Completed, st.StepRows+st.Requests)
	}
	if st.PromptTokens < st.Completed {
		t.Errorf("PromptTokens = %d < Completed = %d: prompts unaccounted", st.PromptTokens, st.Completed)
	}
	chunks := uint64(0)
	for _, c := range st.PrefillChunkHist {
		chunks += c
	}
	if chunks == 0 {
		t.Errorf("PrefillChunkHist empty with %d prompt tokens ingested", st.PromptTokens)
	}
	// Every decode step lands in exactly one batch-size bucket, and the
	// rows those buckets imply must bracket the exact StepRows total.
	var steps, rowsLo, rowsHi uint64
	for i, c := range st.BatchHist {
		steps += c
		lo, hi := uint64(1), uint64(1)<<i
		if i > 0 {
			lo = 1<<(i-1) + 1
		}
		rowsLo += c * lo
		rowsHi += c * hi
	}
	if steps != st.Steps {
		t.Errorf("BatchHist sums to %d steps, want %d", steps, st.Steps)
	}
	if st.StepRows < rowsLo || st.StepRows > rowsHi {
		t.Errorf("StepRows = %d outside BatchHist bounds [%d, %d]", st.StepRows, rowsLo, rowsHi)
	}
}
