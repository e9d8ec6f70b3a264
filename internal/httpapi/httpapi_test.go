package httpapi

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/grammar"
	"repro/internal/lm"
	"repro/internal/mathx"
	"repro/internal/sample"
	"repro/internal/serve"
)

// testModel trains the fast n-gram backend — milliseconds, deterministic,
// and served through the same loop the worker binary uses for it.
func testModel(t *testing.T) lm.LanguageModel {
	t.Helper()
	lines := corpus.PCFGText(grammar.TinyEnglish(), 80, 8, mathx.NewRNG(7))
	m, err := lm.TrainBackend("ngram", lines, 7)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// slowModel gates decode steps on a channel receive, holding requests in
// flight for as long as the test wants — the fake slow backend seam the
// drain test hangs a real SSE stream on. The first free Append calls pass
// ungated so prompt ingestion (which also steps the model, one Append per
// prompt token) is not counted; after that, token k+1's step blocks
// until a permit arrives (token 1 samples straight off the prompt logits,
// so it needs none). Closing the gate releases everything.
type slowModel struct {
	lm.LanguageModel
	gate chan struct{}
	free int
}

func (s slowModel) NewStepper() sample.Stepper {
	inner := s.LanguageModel.NewStepper()
	n := 0
	return sample.StepperFunc(func(id int) []float64 {
		n++
		if n > s.free {
			<-s.gate
		}
		return inner.Append(id)
	})
}

// promptLen returns how many tokens prompt encodes to for m.
func promptLen(t *testing.T, m lm.LanguageModel, prompt string, budget int) int {
	t.Helper()
	ids, err := m.EncodePrompt(prompt, budget)
	if err != nil {
		t.Fatal(err)
	}
	return len(ids)
}

func newTestServer(t *testing.T, m lm.LanguageModel) (*httptest.Server, *Handler) {
	t.Helper()
	srv := serve.NewBackend(m, serve.Config{})
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
	ts, _ := newTestServer(t, testModel(t))
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
	ts, _ := newTestServer(t, testModel(t))
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

// TestStatsGauges checks /v1/stats carries the live gauges the router polls
// and the prefix-cache counters, whose invariant holds on the wire:
// prompt_tokens + prefix_hit_tokens is the prompt tokens admitted.
func TestStatsGauges(t *testing.T) {
	ts, _ := newTestServer(t, testModel(t))
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
	srv := serve.NewBackend(testModel(t), serve.Config{})
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
	m := testModel(t)
	gate := make(chan struct{})
	ts, h := newTestServer(t, slowModel{m, gate, promptLen(t, m, prompt, tokens)})

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
	inner := testModel(t)
	m := slowModel{inner, gate, promptLen(t, inner, prompt, 8)}
	srv := serve.NewBackend(m, serve.Config{})
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
