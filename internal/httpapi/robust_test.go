package httpapi

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/serve"
)

// TestValidationRejectsMalformedBodies: out-of-range knobs get a 400 at the
// door instead of reaching the sampling panic guards from inside the loop.
func TestValidationRejectsMalformedBodies(t *testing.T) {
	ts, _ := newTestServer(t, testModel())
	bad := []GenRequest{
		{Prompt: "the king", Tokens: -1},
		{Prompt: "the king", Strategy: "temp", Temperature: -0.5},
		{Prompt: "the king", Strategy: "topk", TopK: -3},
		{Prompt: "the king", Strategy: "topp", TopP: 1.5},
		{Prompt: "the king", Strategy: "topp", TopP: -0.2},
		{Prompt: "the king", TimeoutMS: -10},
	}
	for _, path := range []string{"/v1/generate", "/v1/stream"} {
		for i, req := range bad {
			resp := postJSON(t, ts.URL+path, req)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s bad request %d: status %d, want 400", path, i, resp.StatusCode)
			}
		}
	}
}

// TestTimeoutHeaderValidation: a malformed budget header is a 400, not a
// silently ignored deadline.
func TestTimeoutHeaderValidation(t *testing.T) {
	ts, _ := newTestServer(t, testModel())
	body, _ := json.Marshal(GenRequest{Prompt: "the king", Tokens: 4})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/generate", strings.NewReader(string(body)))
	req.Header.Set(TimeoutHeader, "soon")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad header: status %d, want 400", resp.StatusCode)
	}
}

// TestOversizedBodyRejected: a body longer than MaxBody gets a 4xx on both
// generation routes and never reaches the serving loop — the worker holds
// the bound the router does, so a client that reaches it directly cannot
// make it buffer more.
func TestOversizedBodyRejected(t *testing.T) {
	ts, h := newTestServer(t, testModel())
	big := GenRequest{Prompt: strings.Repeat("the ", MaxBody/4+1), Tokens: 4}
	for _, path := range []string{"/v1/generate", "/v1/stream"} {
		resp := postJSON(t, ts.URL+path, big)
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s with a %d-byte prompt: status %d, want 4xx", path, len(big.Prompt), resp.StatusCode)
		}
	}
	if st := h.srv.Stats(); st.Requests != 0 {
		t.Errorf("oversized bodies reached the server: %d requests", st.Requests)
	}
}

// TestDeadlineMapsTo504: a request that exhausts its timeout budget fails
// with 504 Gateway Timeout (not 400 or 499), whether the budget came from
// the body's timeout_ms or from the router's header — and the header wins
// over a generous body value. A stream that times out before its first
// token is answered the same way.
func TestDeadlineMapsTo504(t *testing.T) {
	if err := failpoint.Arm(failpoint.Plan{Seed: 1, Rules: []failpoint.Rule{
		{Site: failpoint.ServeSample, Kind: failpoint.KindLatency, Sleep: 20 * time.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()
	ts, _ := newTestServer(t, testModel())

	resp := postJSON(t, ts.URL+"/v1/generate", GenRequest{
		Prompt: "the king", Tokens: 30, TimeoutMS: 40,
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("body timeout: status %d, want 504", resp.StatusCode)
	}

	// Header wins: the body grants ten minutes, the header 40ms.
	body, _ := json.Marshal(GenRequest{Prompt: "the king", Tokens: 30, TimeoutMS: 600_000})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/generate", strings.NewReader(string(body)))
	req.Header.Set(TimeoutHeader, "40")
	start := time.Now()
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("header timeout: status %d, want 504", hresp.StatusCode)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("header budget ignored: request ran %v", d)
	}

	// A stream whose budget runs out during a slow first pass has sent no
	// byte yet: it gets generate's 504, not a 200 with an error frame, so
	// a router can still fail it over.
	failpoint.Disarm()
	if err := failpoint.Arm(failpoint.Plan{Seed: 1, Rules: []failpoint.Rule{
		{Site: failpoint.ServeStep, Kind: failpoint.KindLatency, Sleep: 300 * time.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	sresp := postJSON(t, ts.URL+"/v1/stream", GenRequest{Prompt: "the king", Tokens: 8, TimeoutMS: 40})
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stream deadline before the first token: status %d, want 504", sresp.StatusCode)
	}
}

// TestHandlerPanicBecomes500: a panic before the response is committed is
// answered with a 500 — the worker process does not die, and the next
// request succeeds.
func TestHandlerPanicBecomes500(t *testing.T) {
	if err := failpoint.Arm(failpoint.Plan{Seed: 1, Rules: []failpoint.Rule{
		{Site: failpoint.HTTPGenerate, Kind: failpoint.KindPanic, Count: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()
	ts, _ := newTestServer(t, testModel())

	resp := postJSON(t, ts.URL+"/v1/generate", GenRequest{Prompt: "the king", Tokens: 3})
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/generate", GenRequest{Prompt: "the king", Tokens: 3})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker did not survive the panic: status %d", resp.StatusCode)
	}
}

// readFromRecorder is a ResponseWriter that, like net/http's own, copies a
// body in through ReadFrom; it counts the calls.
type readFromRecorder struct {
	*httptest.ResponseRecorder
	calls int
}

func (r *readFromRecorder) ReadFrom(src io.Reader) (int64, error) {
	r.calls++
	return io.Copy(r.ResponseRecorder, src)
}

// TestGuardPassesReaderFrom: a relay's io.Copy through the panic guard
// reaches the underlying writer's ReadFrom (net/http's pooled copy buffer)
// instead of allocating a 32 KiB buffer per call.
func TestGuardPassesReaderFrom(t *testing.T) {
	rec := &readFromRecorder{ResponseRecorder: httptest.NewRecorder()}
	relay := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.Copy(w, struct{ io.Reader }{strings.NewReader("relayed body")})
	})
	Guard(rec, httptest.NewRequest(http.MethodPost, "/v1/generate", nil), relay, nil)
	if rec.calls != 1 {
		t.Fatalf("ReadFrom called %d times, want 1", rec.calls)
	}
	if got := rec.Body.String(); got != "relayed body" {
		t.Fatalf("body %q, want the relayed one", got)
	}
}

// TestMidStreamErrorFrame: a fault injected after the SSE headers are out
// surfaces as an in-band error frame terminating the stream, with the
// request cleanly charged server-side.
func TestMidStreamErrorFrame(t *testing.T) {
	if err := failpoint.Arm(failpoint.Plan{Seed: 1, Rules: []failpoint.Rule{
		{Site: failpoint.HTTPStreamMid, Kind: failpoint.KindError, After: 2, Count: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()
	ts, h := newTestServer(t, testModel())

	resp := postJSON(t, ts.URL+"/v1/stream", GenRequest{Prompt: "the king", Tokens: 8})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (fault fires mid-stream)", resp.StatusCode)
	}
	r := bufio.NewReader(resp.Body)
	sawError := false
	for i := 0; i < 16; i++ {
		payload := readEvent(t, r)
		var probe map[string]any
		if err := json.Unmarshal([]byte(payload), &probe); err != nil {
			t.Fatalf("bad frame %q: %v", payload, err)
		}
		if _, ok := probe["error"]; ok {
			sawError = true
			break
		}
		if _, ok := probe["done"]; ok {
			t.Fatal("stream completed; injected fault never surfaced")
		}
	}
	if !sawError {
		t.Fatal("no in-band error frame observed")
	}
	// The failed stream reached a terminal outcome server-side.
	waitIdle(t, h)
}

// TestMidStreamDropSeversConnection: a drop fault mid-stream kills the
// connection the way a crashing worker would — the client sees a transport
// error, not a clean done frame — and the worker keeps serving.
func TestMidStreamDropSeversConnection(t *testing.T) {
	if err := failpoint.Arm(failpoint.Plan{Seed: 1, Rules: []failpoint.Rule{
		{Site: failpoint.HTTPStreamMid, Kind: failpoint.KindDrop, After: 1, Count: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()
	ts, h := newTestServer(t, testModel())

	resp := postJSON(t, ts.URL+"/v1/stream", GenRequest{Prompt: "the king", Tokens: 8})
	defer resp.Body.Close()
	_, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatal("stream body read completed; want a severed connection")
	}
	failpoint.Disarm()
	resp = postJSON(t, ts.URL+"/v1/generate", GenRequest{Prompt: "the king", Tokens: 3})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker did not survive the drop: status %d", resp.StatusCode)
	}
	waitIdle(t, h)
}

// waitIdle polls the server stats until every accepted request has reached
// a terminal outcome.
func waitIdle(t *testing.T, h *Handler) serve.Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := h.srv.Stats()
		if st.InFlight == 0 && st.Requests == st.Completed+st.Cancelled+st.Failed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never idled: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
