package httpapi

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/grammar"
	"repro/internal/lm"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/tokenizer"
	"repro/internal/transformer"
)

// testModel is an untrained TinyEnglish transformer. Serving does not
// depend on weight values, so nothing is trained. The window fits the
// 30-token budgets of the deadline tests.
func testModel() *core.LLM {
	tok := tokenizer.NewWord(corpus.PCFGText(grammar.TinyEnglish(), 80, 8, mathx.NewRNG(7)))
	return &core.LLM{Tok: tok, Model: transformer.MustNew(transformer.Config{
		Vocab: tok.VocabSize(), Dim: 16, Layers: 1, Heads: 2, Window: 32,
		Pos: transformer.PosLearned, Act: nn.GELU,
	}, mathx.NewRNG(2))}
}

// slowModel returns m over a tokenizer whose Decode blocks on a gate
// receive after its first call, holding requests in flight for as long as
// the test wants — the slow-worker seam the drain test hangs a real SSE
// stream on. A streamed token is decoded the moment it is sampled, so token
// 1 goes out and the loop then blocks on token 2. Closing the gate releases
// everything.
func slowModel(m *core.LLM, gate chan struct{}) *core.LLM {
	slow := *m
	slow.Tok = &slowTok{Tokenizer: m.Tok, gate: gate}
	return &slow
}

type slowTok struct {
	tokenizer.Tokenizer
	gate  chan struct{}
	calls atomic.Int64
}

func (s *slowTok) Decode(ids []int) string {
	if s.calls.Add(1) > 1 {
		<-s.gate
	}
	return s.Tokenizer.Decode(ids)
}

func newTestServer(t *testing.T, m *core.LLM) (*httptest.Server, *Handler) {
	t.Helper()
	srv := serve.New(m, serve.Config{})
	t.Cleanup(srv.Close)
	h := New(srv, nil)
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, h
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readEvent reads the next SSE data frame and returns its raw payload.
func readEvent(t *testing.T, r *bufio.Reader) string {
	t.Helper()
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended early: %v", err)
		}
		line = strings.TrimSpace(line)
		if payload, ok := strings.CutPrefix(line, "data: "); ok {
			return payload
		}
	}
}

// sseEvents reads every remaining data frame of an SSE body, returning the
// token pieces in order and the final done frame.
func sseEvents(t *testing.T, r *bufio.Reader) (pieces []string, done StreamDone) {
	t.Helper()
	for {
		payload := readEvent(t, r)
		var probe map[string]any
		if err := json.Unmarshal([]byte(payload), &probe); err != nil {
			t.Fatalf("bad event %q: %v", payload, err)
		}
		if errMsg, ok := probe["error"]; ok {
			t.Fatalf("in-band stream error: %v", errMsg)
		}
		if _, ok := probe["done"]; ok {
			if err := json.Unmarshal([]byte(payload), &done); err != nil {
				t.Fatal(err)
			}
			return pieces, done
		}
		var tok sample.Token
		if err := json.Unmarshal([]byte(payload), &tok); err != nil {
			t.Fatal(err)
		}
		pieces = append(pieces, tok.Text)
	}
}

// TestGenerateStreamParity pins the wire contract: /v1/generate and
// /v1/stream return the same completion for the same request, and the
// streamed pieces concatenate to exactly the final text.
func TestGenerateStreamParity(t *testing.T) {
	ts, _ := newTestServer(t, testModel())
	req := GenRequest{Prompt: "the king", Tokens: 8, Seed: 3}

	resp := postJSON(t, ts.URL+"/v1/generate", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate status %d", resp.StatusCode)
	}
	var gen GenResponse
	if err := json.NewDecoder(resp.Body).Decode(&gen); err != nil {
		t.Fatal(err)
	}
	if gen.Completion == "" || len(gen.Tokens) == 0 {
		t.Fatalf("empty generation: %+v", gen)
	}

	sresp := postJSON(t, ts.URL+"/v1/stream", req)
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", sresp.StatusCode)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type %q", ct)
	}
	pieces, done := sseEvents(t, bufio.NewReader(sresp.Body))
	if got := strings.Join(pieces, ""); got != done.Completion {
		t.Errorf("pieces %q != completion %q", got, done.Completion)
	}
	if done.Completion != gen.Completion {
		t.Errorf("streamed completion %q != generate %q", done.Completion, gen.Completion)
	}
}

func TestBadRequestStatus(t *testing.T) {
	ts, _ := newTestServer(t, testModel())
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json status %d, want 400", resp.StatusCode)
	}
	// An empty prompt encodes to no tokens; the stream handler must reject
	// it with a real 400 before committing to SSE headers.
	resp2 := postJSON(t, ts.URL+"/v1/stream", GenRequest{Prompt: "", Tokens: 4})
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unencodable streamed prompt status %d, want 400", resp2.StatusCode)
	}
}

// TestWindowBudgetOverHTTP: on a windowed model, POST /v1/generate accepts
// a budget of the whole window and returns lm.Gen's completion; one token
// more is a 400.
func TestWindowBudgetOverHTTP(t *testing.T) {
	m := testModel()
	ts, _ := newTestServer(t, m)
	w := m.ContextWindow()
	want, err := lm.Gen(m, "the king", sample.WithMaxTokens(w),
		sample.WithStrategy(sample.Temperature{T: 0.8}), sample.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/generate", GenRequest{Prompt: "the king", Tokens: w, Strategy: "temp", Seed: 1})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tokens = window: status %d, want 200", resp.StatusCode)
	}
	var gen GenResponse
	if err := json.NewDecoder(resp.Body).Decode(&gen); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gen.Tokens, want.Tokens) || gen.Completion != want.Text {
		t.Errorf("tokens = window: served %v %q, lm.Gen %v %q", gen.Tokens, gen.Completion, want.Tokens, want.Text)
	}
	over := postJSON(t, ts.URL+"/v1/generate", GenRequest{Prompt: "the king", Tokens: w + 1})
	over.Body.Close()
	if over.StatusCode != http.StatusBadRequest {
		t.Errorf("tokens = window+1: status %d, want 400", over.StatusCode)
	}
}

// TestStatsGauges checks /v1/stats carries the live gauges the router polls
// and the prefix-cache counters, whose invariant holds on the wire:
// prompt_tokens + prefix_hit_tokens is the prompt tokens admitted.
func TestStatsGauges(t *testing.T) {
	ts, _ := newTestServer(t, testModel())
	postJSON(t, ts.URL+"/v1/generate", GenRequest{Prompt: "the king", Tokens: 4}).Body.Close()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Requests        uint64  `json:"requests"`
		InFlight        int     `json:"in_flight"`
		Queued          int     `json:"queued"`
		PromptTokens    uint64  `json:"prompt_tokens"`
		PrefixLookups   *uint64 `json:"prefix_lookups"`
		PrefixHits      *uint64 `json:"prefix_hits"`
		PrefixHitTokens *uint64 `json:"prefix_hit_tokens"`
		PrefixBlocks    *int    `json:"prefix_blocks"`
		PrefixEvictions *uint64 `json:"prefix_evictions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("stats after one idle request: %+v", st)
	}
	if st.PrefixLookups == nil || st.PrefixHits == nil || st.PrefixHitTokens == nil ||
		st.PrefixBlocks == nil || st.PrefixEvictions == nil {
		t.Fatalf("a prefix-cache counter is missing from /v1/stats: %+v", st)
	}
	if st.PromptTokens+*st.PrefixHitTokens != 2 {
		t.Fatalf("one two-token prompt admitted: prompt_tokens %d + prefix_hit_tokens %d",
			st.PromptTokens, *st.PrefixHitTokens)
	}
}

// TestDrainReadinessAndRejection: /healthz flips 200 -> 503 on drain, new
// generation work is refused with 503 + Retry-After, and the onDrain hook
// fires exactly once.
func TestDrainReadinessAndRejection(t *testing.T) {
	fired := make(chan struct{}, 2)
	srv := serve.New(testModel(), serve.Config{})
	t.Cleanup(srv.Close)
	h := New(srv, func() { fired <- struct{}{} })
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ready healthz %d, want 200", resp.StatusCode)
	}

	dr, err := http.Post(ts.URL+"/v1/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusAccepted {
		t.Fatalf("drain status %d, want 202", dr.StatusCode)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("onDrain hook never fired")
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz %d, want 503", resp.StatusCode)
	}
	gen := postJSON(t, ts.URL+"/v1/generate", GenRequest{Prompt: "the king", Tokens: 4})
	defer gen.Body.Close()
	if gen.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining generate %d, want 503", gen.StatusCode)
	}
	if gen.Header.Get("Retry-After") == "" {
		t.Error("draining generate reply missing Retry-After")
	}
	// Second drain is idempotent and must not re-fire the hook.
	dr2, err := http.Post(ts.URL+"/v1/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	dr2.Body.Close()
	select {
	case <-fired:
		t.Fatal("onDrain fired twice")
	case <-time.After(50 * time.Millisecond):
	}
}

// TestDrainCompletesInFlightStream is the rolling-restart core: a stream
// already in flight when drain begins keeps delivering tokens and finishes
// with its done frame, while new work is rejected the whole time.
func TestDrainCompletesInFlightStream(t *testing.T) {
	const tokens = 4
	const prompt = "the king"
	gate := make(chan struct{})
	ts, h := newTestServer(t, slowModel(testModel(), gate))

	resp := postJSON(t, ts.URL+"/v1/stream", GenRequest{Prompt: prompt, Tokens: tokens})
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)

	// Token 1 samples off the prompt logits with no gated step; once it
	// arrives the server is provably blocked mid-stream on token 2's step.
	first := readEvent(t, r)
	if strings.Contains(first, "error") || strings.Contains(first, "done") {
		t.Fatalf("first event %q is not a token", first)
	}
	h.Drain()

	rej := postJSON(t, ts.URL+"/v1/generate", GenRequest{Prompt: prompt, Tokens: 2})
	rej.Body.Close()
	if rej.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("generate during drain %d, want 503", rej.StatusCode)
	}

	close(gate) // let the in-flight stream run to completion
	pieces, done := sseEvents(t, r)
	if len(pieces) != tokens-1 {
		t.Fatalf("drained stream delivered %d more tokens after drain, want %d", len(pieces), tokens-1)
	}
	if !done.Done || done.Completion == "" {
		t.Fatalf("drained stream done frame: %+v", done)
	}
}

// TestStreamClientDisconnect ensures a dropped client cancels the request
// server-side rather than wedging the serving loop.
func TestStreamClientDisconnect(t *testing.T) {
	const prompt = "the king"
	gate := make(chan struct{})
	srv := serve.New(slowModel(testModel(), gate), serve.Config{})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(New(srv, nil))
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/v1/stream", GenRequest{Prompt: prompt, Tokens: 8})
	readEvent(t, bufio.NewReader(resp.Body)) // stream is live
	resp.Body.Close()                        // disconnect mid-stream
	close(gate)

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if st.InFlight == 0 {
			if st.Cancelled+st.Completed == 0 {
				t.Fatalf("request vanished without a terminal count: %+v", st)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("request still in flight after disconnect: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}
