package router

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeWorker is the fake slow-backend seam of the router suite (the
// HTTP-level analogue of serve's fakeBatch): a worker whose health, load
// gauge, stream pacing, and failure mode are all test-controlled, so
// routing policy is asserted without model arithmetic or real serving
// loops.
type fakeWorker struct {
	id      string
	ts      *httptest.Server
	healthy atomic.Bool  // /healthz result
	load    atomic.Int64 // gauge reported on /v1/stats
	hits    atomic.Int64 // generation requests served
	tokens  int          // stream frames before the done event
	gate    chan struct{}
	dieMid  atomic.Bool // abort the stream after the first frame
}

// newFakeWorker starts the fake. A non-nil gate paces work: generate waits
// one receive before answering; a stream emits its first frame immediately
// and then waits one receive per further token — close the gate to let
// everything run free.
func newFakeWorker(t *testing.T, id string, tokens int, gate chan struct{}) *fakeWorker {
	t.Helper()
	w := &fakeWorker{id: id, tokens: tokens, gate: gate}
	w.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		if !w.healthy.Load() {
			rw.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		rw.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /v1/stats", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(rw, `{"in_flight":%d,"queued":0}`, w.load.Load())
	})
	mux.HandleFunc("POST /v1/generate", func(rw http.ResponseWriter, r *http.Request) {
		w.hits.Add(1)
		if w.gate != nil {
			<-w.gate
		}
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(rw, `{"completion":%q,"tokens":[1]}`, w.id)
	})
	mux.HandleFunc("POST /v1/stream", func(rw http.ResponseWriter, r *http.Request) {
		w.hits.Add(1)
		rw.Header().Set("Content-Type", "text/event-stream")
		flusher := rw.(http.Flusher)
		fmt.Fprintf(rw, "data: {\"index\":0,\"id\":1,\"text\":%q}\n\n", w.id)
		flusher.Flush()
		if w.dieMid.Load() {
			panic(http.ErrAbortHandler) // reset mid-stream, like a crash
		}
		for i := 1; i < w.tokens; i++ {
			if w.gate != nil {
				<-w.gate
			}
			fmt.Fprintf(rw, "data: {\"index\":%d,\"id\":1,\"text\":\"t%d\"}\n\n", i, i)
			flusher.Flush()
		}
		fmt.Fprintf(rw, "data: {\"done\":true,\"completion\":%q}\n\n", w.id)
		flusher.Flush()
	})
	w.ts = httptest.NewServer(mux)
	t.Cleanup(w.ts.Close)
	return w
}

func startWorkers(t *testing.T, n, tokens int, gate chan struct{}) []*fakeWorker {
	t.Helper()
	ws := make([]*fakeWorker, n)
	for i := range ws {
		ws[i] = newFakeWorker(t, fmt.Sprintf("w%d", i), tokens, gate)
	}
	return ws
}

func urlsOf(ws []*fakeWorker) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.ts.URL
	}
	return out
}

// newTestRouter builds a router over ws and serves it on an httptest
// server. Defaults are test-friendly (fast retries); the mut hook adjusts
// the config before construction.
func newTestRouter(t *testing.T, ws []*fakeWorker, mut func(*Config)) (*Router, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Backends:       urlsOf(ws),
		RetryBackoff:   time.Millisecond,
		HealthInterval: 20 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	return rt, ts
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// generate posts one request and returns status, completion, and headers.
func generate(t *testing.T, url, session string, header map[string]string) (int, string, http.Header) {
	t.Helper()
	body := `{"prompt":"the king","tokens":4`
	if session != "" {
		body += fmt.Sprintf(",%q:%q", "session", session)
	}
	body += "}"
	req, err := http.NewRequest(http.MethodPost, url+"/v1/generate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Completion string `json:"completion"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out.Completion, resp.Header
}

// TestSessionAffinity: keyed requests land on the ring owner, repeatably,
// and the X-Session-Key header outranks the body field.
func TestSessionAffinity(t *testing.T) {
	ws := startWorkers(t, 3, 2, nil)
	_, ts := newTestRouter(t, ws, nil)
	ring := newRing(urlsOf(ws))

	for s := 0; s < 8; s++ {
		key := fmt.Sprintf("sess-%d", s)
		want := ws[ring.successors(key)[0]].id
		for rep := 0; rep < 3; rep++ {
			status, got, _ := generate(t, ts.URL, key, nil)
			if status != http.StatusOK {
				t.Fatalf("session %q status %d", key, status)
			}
			if got != want {
				t.Fatalf("session %q rep %d served by %s, ring owner is %s", key, rep, got, want)
			}
		}
	}

	// Header wins over body.
	headerKey, bodyKey := "header-session", "body-session"
	want := ws[ring.successors(headerKey)[0]].id
	_, got, _ := generate(t, ts.URL, bodyKey, map[string]string{"X-Session-Key": headerKey})
	if got != want {
		t.Fatalf("X-Session-Key routed to %s, want %s", got, want)
	}
}

// TestAffinityStableAcrossWorkerDeath: when one worker dies, only its
// sessions move (each to its next ring replica, via retry and then
// ejection); every other session keeps its worker.
func TestAffinityStableAcrossWorkerDeath(t *testing.T) {
	ws := startWorkers(t, 3, 2, nil)
	rt, ts := newTestRouter(t, ws, func(c *Config) {
		c.FailThreshold = 1
		c.HealthInterval = time.Hour // no probe readmission during the test
	})
	ring := newRing(urlsOf(ws))

	const sessions = 24
	before := make(map[string]string)
	for s := 0; s < sessions; s++ {
		key := fmt.Sprintf("user-%d", s)
		_, served, _ := generate(t, ts.URL, key, nil)
		before[key] = served
	}

	const dead = 1
	orphans := 0
	for _, owner := range before {
		if owner == ws[dead].id {
			orphans++
		}
	}
	if orphans == 0 {
		t.Fatal("no session owned by the dead worker; test is vacuous")
	}
	ws[dead].ts.Close()
	for key, owner := range before {
		status, after, _ := generate(t, ts.URL, key, nil)
		if status != http.StatusOK {
			t.Fatalf("session %q failed after worker death: status %d", key, status)
		}
		if owner != ws[dead].id {
			if after != owner {
				t.Fatalf("session %q moved %s -> %s though its owner is alive", key, owner, after)
			}
			continue
		}
		wantReplica := ws[ring.successors(key)[1]].id
		if after != wantReplica {
			t.Fatalf("orphaned session %q landed on %s, want next replica %s", key, after, wantReplica)
		}
	}
	if st := rt.Stats(); st.Retries == 0 {
		t.Error("no retries recorded though a dead worker was in the placement order")
	}
	// Passive detection must have ejected the dead worker.
	waitFor(t, "dead worker ejection", func() bool {
		return !rt.Stats().Backends[dead].Healthy
	})
}

// TestUnkeyedLeastLoaded: without a session key, traffic avoids the worker
// whose polled queue gauge is high.
func TestUnkeyedLeastLoaded(t *testing.T) {
	ws := startWorkers(t, 2, 2, nil)
	ws[0].load.Store(20)
	rt, ts := newTestRouter(t, ws, nil)
	waitFor(t, "gauge poll", func() bool { return rt.Stats().Backends[0].Load == 20 })

	base := ws[1].hits.Load()
	for i := 0; i < 5; i++ {
		status, got, _ := generate(t, ts.URL, "", nil)
		if status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		if got != ws[1].id {
			t.Fatalf("unkeyed request served by loaded worker %s", got)
		}
	}
	if ws[1].hits.Load() != base+5 {
		t.Fatalf("idle worker served %d requests, want 5", ws[1].hits.Load()-base)
	}
}

// TestShedAtGlobalCap: with MaxInFlight 1 and one request held in flight,
// the next request is shed with 429 + Retry-After.
func TestShedAtGlobalCap(t *testing.T) {
	gate := make(chan struct{})
	ws := startWorkers(t, 1, 4, gate)
	rt, ts := newTestRouter(t, ws, func(c *Config) { c.MaxInFlight = 1 })

	resp, err := http.Post(ts.URL+"/v1/stream", "application/json", strings.NewReader(`{"prompt":"x","tokens":4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	if _, err := r.ReadString('\n'); err != nil { // first frame: stream is live
		t.Fatal(err)
	}

	status, _, hdr := generate(t, ts.URL, "", nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d at capacity, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	if st := rt.Stats(); st.Shed != 1 {
		t.Errorf("Shed = %d, want 1", st.Shed)
	}
	close(gate)
}

// TestBackendQueueBackpressure: a single worker at its queue limit sheds
// rather than queueing deeper.
func TestBackendQueueBackpressure(t *testing.T) {
	gate := make(chan struct{})
	ws := startWorkers(t, 1, 4, gate)
	rt, ts := newTestRouter(t, ws, func(c *Config) { c.BackendQueue = 2 })

	var streams []*bufio.Reader
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/stream", "application/json", strings.NewReader(`{"prompt":"x","tokens":4}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		r := bufio.NewReader(resp.Body)
		if _, err := r.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, r)
	}
	status, _, _ := generate(t, ts.URL, "", nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d with backend queue full, want 429", status)
	}
	if st := rt.Stats(); st.Shed != 1 {
		t.Errorf("Shed = %d, want 1", st.Shed)
	}
	close(gate)
}

// TestMidStreamWorkerFailure: a worker crashing mid-stream cannot be
// retried (tokens already reached the client); the client gets an in-band
// error frame, and the crash counts toward ejection so the session's next
// request goes to the replica.
func TestMidStreamWorkerFailure(t *testing.T) {
	ws := startWorkers(t, 2, 3, nil)
	ring := newRing(urlsOf(ws))
	// Find a session owned by worker 0 so the failover target is worker 1.
	session := ""
	for s := 0; ; s++ {
		session = fmt.Sprintf("victim-%d", s)
		if ring.successors(session)[0] == 0 {
			break
		}
	}
	ws[0].dieMid.Store(true)
	rt, ts := newTestRouter(t, ws, func(c *Config) {
		c.FailThreshold = 1
		c.HealthInterval = time.Hour // keep the probe from readmitting it
	})

	resp, err := http.Post(ts.URL+"/v1/stream", "application/json",
		strings.NewReader(fmt.Sprintf(`{"prompt":"x","tokens":3,"session":%q}`, session)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var frames []string
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); strings.HasPrefix(line, "data: ") {
			frames = append(frames, strings.TrimPrefix(line, "data: "))
		}
	}
	if len(frames) != 2 {
		t.Fatalf("frames %v, want the first token then the in-band error", frames)
	}
	if !strings.Contains(frames[0], ws[0].id) {
		t.Errorf("first frame %q did not come from the session owner", frames[0])
	}
	if !strings.Contains(frames[1], "error") {
		t.Errorf("terminal frame %q is not an error event", frames[1])
	}
	if st := rt.Stats(); st.Errors == 0 {
		t.Error("broken stream not counted in Errors")
	}

	// The crash ejected the owner: the session's next request is served
	// whole by the replica.
	status, got, _ := generate(t, ts.URL, session, nil)
	if status != http.StatusOK || got != ws[1].id {
		t.Fatalf("post-crash request: status %d served by %q, want 200 from %s", status, got, ws[1].id)
	}
}

// TestEjectionAndReadmission drives the health state machine end to end:
// failing probes eject a worker (and traffic avoids it), a recovering
// probe readmits it.
func TestEjectionAndReadmission(t *testing.T) {
	ws := startWorkers(t, 2, 2, nil)
	rt, ts := newTestRouter(t, ws, func(c *Config) { c.FailThreshold = 2 })

	ws[0].healthy.Store(false)
	waitFor(t, "ejection after failing probes", func() bool {
		return !rt.Stats().Backends[0].Healthy
	})
	if ej := rt.Stats().Backends[0].Ejections; ej == 0 {
		t.Error("no ejection counted")
	}
	base := ws[0].hits.Load()
	for i := 0; i < 5; i++ {
		if status, got, _ := generate(t, ts.URL, "", nil); status != http.StatusOK || got != ws[1].id {
			t.Fatalf("request %d: status %d from %q, want 200 from the healthy worker", i, status, got)
		}
	}
	if extra := ws[0].hits.Load() - base; extra != 0 {
		t.Errorf("ejected worker served %d requests", extra)
	}

	ws[0].healthy.Store(true)
	waitFor(t, "readmission after recovering probe", func() bool {
		return rt.Stats().Backends[0].Healthy
	})
}

// TestGracefulDrain drains the way llm-router does: Drain rejects new
// work with 503 and flips /healthz, then the http.Server's Shutdown waits
// for the in-flight SSE stream, which completes with its done frame, and
// returns only once it has.
func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	ws := startWorkers(t, 2, 3, gate)
	rt, ts := newTestRouter(t, ws, nil)

	resp, err := http.Post(ts.URL+"/v1/stream", "application/json", strings.NewReader(`{"prompt":"x","tokens":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	if _, err := r.ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	rt.Drain()
	status, _, hdr := generate(t, ts.URL, "", nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("generate while draining: %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("draining rejection missing Retry-After")
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz %d, want 503", hresp.StatusCode)
	}

	// The held stream keeps Shutdown from completing.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := ts.Config.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned while a stream was in flight")
	}
	cancel()

	close(gate)
	var sawDone bool
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			break
		}
		if strings.Contains(line, `"done":true`) {
			sawDone = true
		}
	}
	if !sawDone {
		t.Fatal("in-flight stream did not complete through the drain")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := ts.Config.Shutdown(ctx2); err != nil {
		t.Fatalf("Shutdown after stream completion: %v", err)
	}
	if st := rt.Stats(); !st.Draining || st.Rejected == 0 {
		t.Errorf("drain stats: %+v", st)
	}
}

// TestRouterStatsEndpoint: the router's own /v1/stats is live and carries
// per-backend state.
func TestRouterStatsEndpoint(t *testing.T) {
	ws := startWorkers(t, 2, 2, nil)
	_, ts := newTestRouter(t, ws, nil)
	if status, _, _ := generate(t, ts.URL, "k", nil); status != http.StatusOK {
		t.Fatalf("warmup status %d", status)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || st.Proxied != 1 || len(st.Backends) != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestConfigDefaults: zero and negative values both select a bounded
// field's default, and a positive value is kept.
func TestConfigDefaults(t *testing.T) {
	checkDefault(t, "SyncInterval", func(c *Config) *time.Duration { return &c.SyncInterval }, 500*time.Millisecond)
	checkDefault(t, "DefaultLease", func(c *Config) *time.Duration { return &c.DefaultLease }, 15*time.Second)
	checkDefault(t, "MaxInFlight", func(c *Config) *int { return &c.MaxInFlight }, 256)
	checkDefault(t, "BackendQueue", func(c *Config) *int { return &c.BackendQueue }, 32)
	checkDefault(t, "MaxAttempts", func(c *Config) *int { return &c.MaxAttempts }, 3)
	checkDefault(t, "RetryBackoff", func(c *Config) *time.Duration { return &c.RetryBackoff }, 10*time.Millisecond)
	checkDefault(t, "HealthInterval", func(c *Config) *time.Duration { return &c.HealthInterval }, 250*time.Millisecond)
	checkDefault(t, "FailThreshold", func(c *Config) *int { return &c.FailThreshold }, 3)
	checkDefault(t, "RelayTimeout", func(c *Config) *time.Duration { return &c.RelayTimeout }, 30*time.Second)
}

func checkDefault[T int | time.Duration](t *testing.T, name string, field func(*Config) *T, def T) {
	t.Helper()
	for _, v := range []T{0, -1, 7} {
		var c Config
		*field(&c) = v
		d := c.withDefaults()
		want := def
		if v > 0 {
			want = v
		}
		if got := *field(&d); got != want {
			t.Errorf("%s %v: withDefaults gives %v, want %v", name, v, got, want)
		}
	}
}
