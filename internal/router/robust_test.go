package router

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/httpapi"
)

// TestRelayTimeoutFailsOverBlackhole: a worker that accepts the connection
// and never answers no longer hangs the relay — the per-attempt timeout
// fails it over to a healthy replica within the deadline logic.
func TestRelayTimeoutFailsOverBlackhole(t *testing.T) {
	// Worker 0 black-holes /v1/generate; worker 1 answers.
	hole := make(chan struct{})
	defer close(hole)
	ws := startWorkers(t, 2, 4, nil)
	blackhole := newFakeWorker(t, "hole", 4, nil)
	blackhole.ts.Config.Handler = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			<-hole // never answers generation work
			return
		}
		rw.WriteHeader(http.StatusOK)
		fmt.Fprintln(rw, `{"in_flight":0,"queued":0}`)
	})

	rt, ts := newTestRouter(t, []*fakeWorker{blackhole, ws[1]}, func(c *Config) {
		c.RelayTimeout = 50 * time.Millisecond
		c.MaxAttempts = 2
	})
	_ = rt

	start := time.Now()
	status, completion, _ := generate(t, ts.URL, "", nil)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 via failover", status)
	}
	if completion != "w1" {
		t.Fatalf("completion %q, want the healthy worker's", completion)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("failover took %v; relay timeout did not fire", d)
	}
}

// TestRelayFaultRetries: an injected relay fault behaves exactly like a
// transport failure — passive detection plus retry to the next replica, so
// the client still gets a 200.
func TestRelayFaultRetries(t *testing.T) {
	if err := failpoint.Arm(failpoint.Plan{Seed: 1, Rules: []failpoint.Rule{
		{Site: failpoint.RouterRelay, Kind: failpoint.KindError, Count: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()
	ws := startWorkers(t, 2, 4, nil)
	rt, ts := newTestRouter(t, ws, nil)

	status, _, _ := generate(t, ts.URL, "", nil)
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 via retry", status)
	}
	if st := rt.Stats(); st.Retries == 0 {
		t.Errorf("no retry recorded after injected relay fault: %+v", st)
	}
}

// TestProbeFaultEjectsAndRecovers: injected probe failures eject a healthy
// worker; once the fault schedule is exhausted, the next successful probe
// readmits it — the recovery path the chaos bench times.
func TestProbeFaultEjectsAndRecovers(t *testing.T) {
	ws := startWorkers(t, 1, 4, nil)
	rt, _ := newTestRouter(t, ws, func(c *Config) {
		c.FailThreshold = 2
		c.HealthInterval = 10 * time.Millisecond
	})
	// Every probe fails until Count runs out; FailThreshold 2 ejects after
	// two fired probes.
	if err := failpoint.Arm(failpoint.Plan{Seed: 1, Rules: []failpoint.Rule{
		{Site: failpoint.RouterProbe, Kind: failpoint.KindError, Count: 4},
	}}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()

	waitFor(t, "ejection", func() bool {
		st := rt.Stats()
		return len(st.Backends) == 1 && !st.Backends[0].Healthy
	})
	waitFor(t, "readmission", func() bool {
		st := rt.Stats()
		return st.Backends[0].Healthy
	})
}

// TestBudgetHeaderDecrementsAcrossAttempts: the worker sees the router's
// remaining-budget header, and it shrinks after a failed first attempt.
func TestBudgetHeaderDecrementsAcrossAttempts(t *testing.T) {
	var seen atomic.Int64
	seen.Store(-1)
	ws := startWorkers(t, 2, 4, nil)
	for _, w := range ws {
		inner := w.ts.Config.Handler
		w.ts.Config.Handler = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				if hd := r.Header.Get(httpapi.TimeoutHeader); hd != "" {
					if ms, err := strconv.ParseInt(hd, 10, 64); err == nil {
						seen.Store(ms)
					}
				}
			}
			inner.ServeHTTP(rw, r)
		})
	}

	// One injected relay fault burns the first attempt (and its backoff)
	// before the request reaches a worker.
	if err := failpoint.Arm(failpoint.Plan{Seed: 1, Rules: []failpoint.Rule{
		{Site: failpoint.RouterRelay, Kind: failpoint.KindError, Count: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()
	_, ts := newTestRouter(t, ws, func(c *Config) {
		c.MaxAttempts = 2
		c.RetryBackoff = 20 * time.Millisecond
	})

	status, _, _ := generate(t, ts.URL, "", map[string]string{httpapi.TimeoutHeader: "10000"})
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200", status)
	}
	got := seen.Load()
	if got < 0 {
		t.Fatal("worker never saw the budget header")
	}
	if got >= 10000 || got < 5000 {
		t.Fatalf("forwarded budget %dms; want decremented below 10000 but not collapsed", got)
	}
}

// TestBudgetExhaustedIs504: when the budget is gone before any attempt can
// be made, the router answers 504 itself.
func TestBudgetExhaustedIs504(t *testing.T) {
	// Both attempts fail via injected faults; the 1ms budget is gone by the
	// retry, so the router must answer 504, not 502.
	if err := failpoint.Arm(failpoint.Plan{Seed: 1, Rules: []failpoint.Rule{
		{Site: failpoint.RouterRelay, Kind: failpoint.KindError, Count: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()
	ws := startWorkers(t, 2, 4, nil)
	_, ts := newTestRouter(t, ws, func(c *Config) {
		c.MaxAttempts = 2
		c.RetryBackoff = 20 * time.Millisecond
	})
	status, _, _ := generate(t, ts.URL, "", map[string]string{httpapi.TimeoutHeader: "1"})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", status)
	}
}

// TestBadBudgetHeaderIs400: a malformed budget header is rejected at the
// router rather than silently forwarded without its deadline.
func TestBadBudgetHeaderIs400(t *testing.T) {
	ws := startWorkers(t, 1, 4, nil)
	_, ts := newTestRouter(t, ws, nil)
	status, _, _ := generate(t, ts.URL, "", map[string]string{httpapi.TimeoutHeader: "whenever"})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", status)
	}
}

// TestRouterPanicBecomes500: a panic inside the routing tier answers the
// request with a 500 instead of dying silently, and the router keeps
// serving.
func TestRouterPanicBecomes500(t *testing.T) {
	ws := startWorkers(t, 1, 4, nil)
	rt, ts := newTestRouter(t, ws, nil)
	// No public seam panics on demand, so drive the recovery layer
	// directly with a handler that detonates.
	rt.mux.HandleFunc("POST /v1/boom", func(http.ResponseWriter, *http.Request) {
		panic("router bug")
	})
	resp, err := http.Post(ts.URL+"/v1/boom", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if status, _, _ := generate(t, ts.URL, "", nil); status != http.StatusOK {
		t.Fatalf("router did not survive the panic: status %d", status)
	}
}

// lockedLog is an http.Server error log the test can read while the
// server's goroutines write it.
type lockedLog struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// TestRouterPanicAfterSSEHeaders: a panic after a stream's headers and
// first frame are out ends the stream with an in-band SSE error frame — the
// worker's own contract — rather than a bare JSON line and a second
// WriteHeader, and it counts as one router error.
func TestRouterPanicAfterSSEHeaders(t *testing.T) {
	ws := startWorkers(t, 1, 4, nil)
	rt, _ := newTestRouter(t, ws, nil)
	rt.mux.HandleFunc("POST /v1/boom", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, "data: {\"index\":0,\"id\":1,\"text\":\"a\"}\n\n")
		w.(http.Flusher).Flush()
		panic("router bug mid-stream")
	})
	var errLog lockedLog
	ts := httptest.NewUnstartedServer(rt)
	ts.Config.ErrorLog = log.New(&errLog, "", 0)
	ts.Start()
	defer ts.Close()

	before := rt.Stats().Errors
	resp, err := http.Post(ts.URL+"/v1/boom", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want the stream's 200", resp.StatusCode)
	}
	var frames []string
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		frame, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			t.Fatalf("line %q is not an SSE data frame; body:\n%s", line, body)
		}
		frames = append(frames, frame)
	}
	if len(frames) != 2 {
		t.Fatalf("%d frames, want the token and one error frame; body:\n%s", len(frames), body)
	}
	var last map[string]string
	if err := json.Unmarshal([]byte(frames[1]), &last); err != nil || !strings.Contains(last["error"], "router bug mid-stream") {
		t.Fatalf("last frame %q is not the panic's error frame (%v)", frames[1], err)
	}
	if got := rt.Stats().Errors - before; got != 1 {
		t.Errorf("errors rose by %d, want 1", got)
	}
	if l := errLog.String(); strings.Contains(l, "superfluous") {
		t.Errorf("the guard wrote a second status line: %s", l)
	}
}
