package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeRouter is the control-plane seam for the Joiner tests: it records
// every register/deregister call and can fail the first N registers to
// exercise the retry loop.
type fakeRouter struct {
	ts          *httptest.Server
	registers   atomic.Int64
	deregisters atomic.Int64
	failFirst   atomic.Int64 // registers to answer 500 before succeeding
	failDereg   atomic.Int64 // deregisters to answer 500 before succeeding
	lastReg     atomic.Value // RegisterRequest
	lastDereg   atomic.Value // DeregisterRequest
}

func newFakeRouter(t *testing.T) *fakeRouter {
	t.Helper()
	fr := &fakeRouter{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		json.NewDecoder(r.Body).Decode(&req)
		fr.lastReg.Store(req)
		n := fr.registers.Add(1)
		if n <= fr.failFirst.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		WriteJSON(w, http.StatusOK, RegisterResponse{Epoch: 1, LeaseMS: req.LeaseMS, Created: n == 1})
	})
	mux.HandleFunc("POST /v1/deregister", func(w http.ResponseWriter, r *http.Request) {
		var req DeregisterRequest
		json.NewDecoder(r.Body).Decode(&req)
		fr.lastDereg.Store(req)
		n := fr.deregisters.Add(1)
		if n <= fr.failDereg.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		WriteJSON(w, http.StatusOK, DeregisterResponse{Epoch: 2, Removed: true})
	})
	fr.ts = httptest.NewServer(mux)
	t.Cleanup(fr.ts.Close)
	return fr
}

func waitJoin(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJoinerHeartbeats: the loop registers immediately, keeps renewing on
// the interval with the advertised URL and lease, and stops when told.
func TestJoinerHeartbeats(t *testing.T) {
	fr := newFakeRouter(t)
	j, err := StartJoiner(JoinConfig{
		Routers: []string{fr.ts.URL}, Self: "http://127.0.0.1:9999",
		Lease: 300 * time.Millisecond, Interval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitJoin(t, "three heartbeats", func() bool { return fr.registers.Load() >= 3 })
	req := fr.lastReg.Load().(RegisterRequest)
	if req.URL != "http://127.0.0.1:9999" || req.LeaseMS != 300 {
		t.Fatalf("heartbeat carried %+v, want the advertised URL and 300ms lease", req)
	}

	j.Stop()
	after := fr.registers.Load()
	time.Sleep(80 * time.Millisecond)
	if got := fr.registers.Load(); got != after {
		t.Fatalf("heartbeats continued after Stop: %d -> %d", after, got)
	}
	if fr.deregisters.Load() != 0 {
		t.Fatal("Stop must not deregister — that is Leave's job")
	}
}

// TestJoinerRetriesThroughFailures: a router that errors the first several
// registers (a worker booting before its router) is retried with backoff
// until it answers, and the loop recovers without intervention.
func TestJoinerRetriesThroughFailures(t *testing.T) {
	fr := newFakeRouter(t)
	fr.failFirst.Store(5)
	j, err := StartJoiner(JoinConfig{
		Routers: []string{fr.ts.URL}, Self: "http://127.0.0.1:9999",
		Lease: 300 * time.Millisecond, Interval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Stop()
	waitJoin(t, "a successful register after 5 failures", func() bool { return fr.registers.Load() >= 7 })
}

// TestJoinerLogsUnreachableRouterOnce: a router that never answers is
// logged on the first failed register and not again over the retries that
// follow — one line per outage, not per heartbeat.
func TestJoinerLogsUnreachableRouterOnce(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	var mu sync.Mutex
	var lines []string
	j, err := StartJoiner(JoinConfig{
		Routers: []string{dead.URL}, Self: "http://127.0.0.1:9999",
		Lease: 300 * time.Millisecond, Interval: 20 * time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			lines = append(lines, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// What is checked is that nothing more gets logged, which has no event
	// to wait on: run for a span of ten or more registers at a 5-20ms
	// backoff.
	time.Sleep(200 * time.Millisecond)
	j.Stop()
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 || !strings.Contains(lines[0], dead.URL) {
		t.Fatalf("logged %q, want one failure line naming %s", lines, dead.URL)
	}
}

// TestLeaveDeregisters: Leave halts heartbeats first (no stale renewal can
// land after), then posts exactly one deregister for the advertised URL.
func TestLeaveDeregisters(t *testing.T) {
	fr := newFakeRouter(t)
	j, err := StartJoiner(JoinConfig{
		Routers: []string{fr.ts.URL}, Self: "http://127.0.0.1:9999",
		Lease: 300 * time.Millisecond, Interval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitJoin(t, "first register", func() bool { return fr.registers.Load() >= 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := j.Leave(ctx); err != nil {
		t.Fatal(err)
	}
	if got := fr.deregisters.Load(); got != 1 {
		t.Fatalf("deregisters = %d, want 1", got)
	}
	dereg := fr.lastDereg.Load().(DeregisterRequest)
	if dereg.URL != "http://127.0.0.1:9999" {
		t.Fatalf("deregistered %q, want the advertised URL", dereg.URL)
	}
	regs := fr.registers.Load()
	time.Sleep(80 * time.Millisecond)
	if got := fr.registers.Load(); got != regs {
		t.Fatalf("heartbeats continued after Leave: %d -> %d", regs, got)
	}
}

// TestJoinRoutersNormalize: the Routers list is normalized, with
// whitespace, trailing slashes, empties, and duplicates dropped — a worker
// must never run two heartbeat loops at one router — and a router or self
// URL without a scheme and a host is an error, since no heartbeat could
// ever reach it.
func TestJoinRoutersNormalize(t *testing.T) {
	got, self, err := joinRouters(JoinConfig{
		Routers: []string{"http://a:1/", " http://b:2 ", "", "http://a:1", "http://b:2/"},
		Self:    " http://w:3/ ",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a:1", "http://b:2"}
	if !slices.Equal(got, want) || self != "http://w:3" {
		t.Fatalf("joinRouters = %v, %q; want %v, %q", got, self, want, "http://w:3")
	}
	for _, bad := range []JoinConfig{
		{Routers: []string{"localhost:8371"}, Self: "http://w:3"},
		{Routers: []string{"http://a:1", "a:1"}, Self: "http://w:3"},
		{Routers: []string{"http://"}, Self: "http://w:3"},
		{Routers: []string{"http://a b:1"}, Self: "http://w:3"},
		{Routers: []string{" ", ""}, Self: "http://w:3"},
		{Routers: []string{"http://a:1"}, Self: "w:3"},
		{Routers: []string{"http://a:1"}, Self: ""},
	} {
		if got, self, err := joinRouters(bad); err == nil {
			t.Errorf("joinRouters(%q, self %q) = %v, %q; want an error", bad.Routers, bad.Self, got, self)
		}
	}
	if j, err := StartJoiner(JoinConfig{Routers: []string{"localhost:8371"}, Self: "http://127.0.0.1:9999"}); err == nil {
		j.Stop()
		t.Fatal("StartJoiner with a scheme-less router URL returned no error")
	}
}

// TestJoinerHeartbeatsEveryRouter: with a replicated router tier the
// Joiner heartbeats all routers independently, and one router dying does
// not disturb the cadence at the survivor.
func TestJoinerHeartbeatsEveryRouter(t *testing.T) {
	fr1, fr2 := newFakeRouter(t), newFakeRouter(t)
	j, err := StartJoiner(JoinConfig{
		Routers: []string{fr1.ts.URL, fr2.ts.URL}, Self: "http://127.0.0.1:9999",
		Lease: 300 * time.Millisecond, Interval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Stop()
	waitJoin(t, "three heartbeats at each router", func() bool {
		return fr1.registers.Load() >= 3 && fr2.registers.Load() >= 3
	})

	// Kill router 1; router 2 must keep receiving renewals.
	fr1.ts.Close()
	before := fr2.registers.Load()
	waitJoin(t, "three more heartbeats at the survivor", func() bool {
		return fr2.registers.Load() >= before+3
	})
}

// TestLeaveDeregistersEveryRouter: Leave fans out to every router, and a
// router that fails transiently is retried within the per-router budget —
// a blip must not leave a stale member squatting until lease expiry.
func TestLeaveDeregistersEveryRouter(t *testing.T) {
	fr1, fr2 := newFakeRouter(t), newFakeRouter(t)
	fr2.failDereg.Store(2) // first two attempts 500, third succeeds
	j, err := StartJoiner(JoinConfig{
		Routers: []string{fr1.ts.URL, fr2.ts.URL}, Self: "http://127.0.0.1:9999",
		Lease: 300 * time.Millisecond, Interval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitJoin(t, "first register at each router", func() bool {
		return fr1.registers.Load() >= 1 && fr2.registers.Load() >= 1
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := j.Leave(ctx); err != nil {
		t.Fatalf("Leave with a transiently failing router: %v", err)
	}
	if got := fr1.deregisters.Load(); got != 1 {
		t.Fatalf("healthy router saw %d deregisters, want 1", got)
	}
	if got := fr2.deregisters.Load(); got != 3 {
		t.Fatalf("flaky router saw %d deregisters, want 3 (2 failures + 1 success)", got)
	}
}

// TestLeaveBoundedRetryReportsDeadRouter: a router that is down for the
// whole drain exhausts its bounded retry and is reported in the joined
// error — but the healthy router is still notified, and Leave returns
// instead of hanging on the corpse.
func TestLeaveBoundedRetryReportsDeadRouter(t *testing.T) {
	fr := newFakeRouter(t)
	dead := newFakeRouter(t)
	deadURL := dead.ts.URL
	j, err := StartJoiner(JoinConfig{
		Routers: []string{fr.ts.URL, deadURL}, Self: "http://127.0.0.1:9999",
		Lease: 300 * time.Millisecond, Interval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitJoin(t, "first register", func() bool { return fr.registers.Load() >= 1 })
	dead.ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err = j.Leave(ctx)
	if err == nil {
		t.Fatal("Leave with a dead router returned nil, want its failure reported")
	}
	if !strings.Contains(err.Error(), deadURL) {
		t.Fatalf("Leave error %q does not name the dead router %s", err, deadURL)
	}
	if got := fr.deregisters.Load(); got != 1 {
		t.Fatalf("healthy router saw %d deregisters, want 1 despite the dead peer", got)
	}
}
