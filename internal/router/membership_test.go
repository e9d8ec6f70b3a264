package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/serve"
)

// registerWorker POSTs one /v1/register call and decodes the grant.
func registerWorker(t *testing.T, routerURL, workerURL string, leaseMS int64) httpapi.RegisterResponse {
	t.Helper()
	body, _ := json.Marshal(httpapi.RegisterRequest{URL: workerURL, LeaseMS: leaseMS})
	resp, err := http.Post(routerURL+"/v1/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s: status %d", workerURL, resp.StatusCode)
	}
	var out httpapi.RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// deregisterWorker POSTs one /v1/deregister call.
func deregisterWorker(t *testing.T, routerURL, workerURL string) httpapi.DeregisterResponse {
	t.Helper()
	body, _ := json.Marshal(httpapi.DeregisterRequest{URL: workerURL})
	resp, err := http.Post(routerURL+"/v1/deregister", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister %s: status %d", workerURL, resp.StatusCode)
	}
	var out httpapi.DeregisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// backendIn finds one backend's stats row by name.
func backendIn(st Stats, name string) (BackendStats, bool) {
	for _, b := range st.Backends {
		if b.Name == name {
			return b, true
		}
	}
	return BackendStats{}, false
}

// TestRegisterJoinsRing: a register call adds the worker to the member set
// under a new epoch, grants the default lease when none is requested, and
// the joined worker starts owning ring arcs — keyed traffic reaches it.
func TestRegisterJoinsRing(t *testing.T) {
	ws := startWorkers(t, 2, 2, nil)
	rt, ts := newTestRouter(t, ws, nil)
	if e := rt.Stats().Epoch; e != 0 {
		t.Fatalf("epoch over the seed fleet = %d, want 0", e)
	}

	w3 := newFakeWorker(t, "w2", 2, nil)
	grant := registerWorker(t, ts.URL, w3.ts.URL, 0)
	if !grant.Created || grant.Epoch != 1 {
		t.Fatalf("grant = %+v, want created under epoch 1", grant)
	}
	if grant.LeaseMS != (15 * time.Second).Milliseconds() {
		t.Fatalf("default lease grant = %dms, want 15000", grant.LeaseMS)
	}
	st := rt.Stats()
	if st.Members != 3 || st.Joins != 1 {
		t.Fatalf("members=%d joins=%d after one register, want 3/1", st.Members, st.Joins)
	}
	b, ok := backendIn(st, w3.ts.URL)
	if !ok || !b.Leased {
		t.Fatalf("joined worker missing or not leased in stats: %+v", st.Backends)
	}

	// The new member must actually own arcs: find a session the post-join
	// ring places on it and check the request lands there.
	names := append(urlsOf(ws), w3.ts.URL)
	rg := newRing(names)
	session := ""
	for s := 0; s < 64; s++ {
		key := fmt.Sprintf("sess-%d", s)
		if names[rg.successors(key)[0]] == w3.ts.URL {
			session = key
			break
		}
	}
	if session == "" {
		t.Fatal("no session hashed to the joined worker in 64 tries")
	}
	if status, got, _ := generate(t, ts.URL, session, nil); status != http.StatusOK || got != "w2" {
		t.Fatalf("keyed request for the joined worker's session: status %d completion %q", status, got)
	}

	// Re-registering the same worker is a heartbeat, not a join: no new
	// epoch, no join counted.
	again := registerWorker(t, ts.URL, w3.ts.URL, 0)
	if again.Created || again.Epoch != 1 {
		t.Fatalf("re-register = %+v, want renewal under unchanged epoch 1", again)
	}
	if st := rt.Stats(); st.Joins != 1 || st.Members != 3 {
		t.Fatalf("re-register changed the ledger: joins=%d members=%d", st.Joins, st.Members)
	}
}

// TestLeaseExpiryEjectsAndHeartbeatReadmits: a lease that lapses ejects
// the worker exactly like probe failure — without a membership change —
// renewals keep it alive indefinitely, and a later heartbeat readmits it
// with its ring position intact.
func TestLeaseExpiryEjectsAndHeartbeatReadmits(t *testing.T) {
	ws := startWorkers(t, 1, 2, nil)
	rt, ts := newTestRouter(t, ws, nil)

	// An unreachable URL so probes cannot readmit it behind the lease's
	// back; only heartbeats govern it.
	dead := "http://127.0.0.1:1"
	registerWorker(t, ts.URL, dead, 50)

	// Renewals across several TTLs must hold the member healthy-from-lease
	// even though every probe fails... until the failure streak ejects it;
	// what must NOT fire during renewal is a lease expiry.
	for i := 0; i < 5; i++ {
		time.Sleep(20 * time.Millisecond)
		registerWorker(t, ts.URL, dead, 50)
	}
	if st := rt.Stats(); st.LeaseExpiries != 0 {
		t.Fatalf("lease expired despite renewals: %d expiries", st.LeaseExpiries)
	}

	// Stop renewing: the sweep must eject it via exactly the lease path.
	waitFor(t, "lease expiry after renewals stop", func() bool {
		return rt.Stats().LeaseExpiries == 1
	})
	waitFor(t, "ejection of the lapsed member", func() bool {
		b, ok := backendIn(rt.Stats(), dead)
		return ok && !b.Healthy
	})
	st := rt.Stats()
	if st.Members != 2 || st.Epoch != 1 {
		t.Fatalf("expiry changed membership: members=%d epoch=%d, want 2/1", st.Members, st.Epoch)
	}

	// One heartbeat readmits — the bounded-readmission contract.
	grant := registerWorker(t, ts.URL, dead, 50)
	if grant.Created {
		t.Fatal("re-register after expiry created a new member; the lapsed one should have been renewed")
	}
	b, _ := backendIn(rt.Stats(), dead)
	if !b.Healthy {
		t.Fatal("heartbeat did not readmit the lapsed member")
	}
	if st := rt.Stats(); st.Epoch != 1 {
		t.Fatalf("expiry+readmission moved the epoch to %d; health changes must not", st.Epoch)
	}
}

// TestDeregisterRemovesFromRing: graceful leave removes the member under a
// new epoch and is idempotent.
func TestDeregisterRemovesFromRing(t *testing.T) {
	ws := startWorkers(t, 2, 2, nil)
	rt, ts := newTestRouter(t, ws, nil)
	w3 := newFakeWorker(t, "w2", 2, nil)
	registerWorker(t, ts.URL, w3.ts.URL, 0)

	gone := deregisterWorker(t, ts.URL, w3.ts.URL)
	if !gone.Removed || gone.Epoch != 2 {
		t.Fatalf("deregister = %+v, want removed under epoch 2", gone)
	}
	st := rt.Stats()
	if st.Members != 2 || st.Leaves != 1 {
		t.Fatalf("members=%d leaves=%d after leave, want 2/1", st.Members, st.Leaves)
	}
	if _, ok := backendIn(st, w3.ts.URL); ok {
		t.Fatal("departed worker still listed in stats")
	}

	again := deregisterWorker(t, ts.URL, w3.ts.URL)
	if again.Removed || again.Epoch != 2 {
		t.Fatalf("second deregister = %+v, want idempotent no-op", again)
	}
}

// TestForgetLapsedMember: a member that stays lapsed past the forget
// horizon (forgetFactor TTLs: 200ms at the 20ms lease) with probes failing
// too is removed from the ring entirely — while a probe-reachable member is
// merely ejected, never forgotten.
func TestForgetLapsedMember(t *testing.T) {
	ws := startWorkers(t, 1, 2, nil)
	rt, ts := newTestRouter(t, ws, nil)
	registerWorker(t, ts.URL, "http://127.0.0.1:1", 20)

	waitFor(t, "lapsed unreachable member to be forgotten", func() bool {
		return rt.Stats().Forgotten == 1
	})
	st := rt.Stats()
	if st.Members != 1 || st.Epoch != 2 {
		t.Fatalf("after forget: members=%d epoch=%d, want 1 member under epoch 2 (join+forget)", st.Members, st.Epoch)
	}

	// A reachable worker whose heartbeats died degrades to probe-governed
	// health instead: lapsed, ejected-then-readmitted by probes, but never
	// forgotten.
	w2 := newFakeWorker(t, "w1", 2, nil)
	registerWorker(t, ts.URL, w2.ts.URL, 20)
	time.Sleep(500 * time.Millisecond) // more than two forget horizons past expiry
	st = rt.Stats()
	if st.Forgotten != 1 {
		t.Fatalf("probe-reachable member was forgotten (forgotten=%d); only unreachable ones may be", st.Forgotten)
	}
	if b, ok := backendIn(st, w2.ts.URL); !ok || !b.Healthy {
		t.Fatalf("probe-reachable lapsed member should stay a healthy member: %+v", st.Backends)
	}
}

// TestOnlyFirstHandLivenessReadmits: a peer's record moves the lease clock
// and never health. A member ejected by FailThreshold failures stays
// ejected after a newer record with a running lease; a successful probe or
// relay (markSuccess) and a heartbeat (renew) each readmit it. A lapsed
// member that such a record revives has lapsed cleared, so its next expiry
// is swept and counted again.
func TestOnlyFirstHandLivenessReadmits(t *testing.T) {
	const threshold = 3
	now := time.Now()
	m := newMembership(nil)
	b := newBackend("http://w:1")
	m.register(b, time.Second, now)
	// A peer's record of a renewal it heard at the merge instant.
	rec := func() []syncRecord {
		version, _ := b.lease()
		return []syncRecord{{URL: b.name, Version: version, LeaseMS: 1000}}
	}
	eject := func() {
		for range threshold {
			b.markFailure(threshold)
		}
		if b.isHealthy() {
			t.Fatalf("%d failures did not eject the member", threshold)
		}
	}

	eject()
	m.merge(rec(), now.Add(100*time.Millisecond), time.Second)
	if _, ms := b.leaseInfo(now); ms != 1100 {
		t.Fatalf("lease ends %dms from the start after a newer record, want 1100", ms)
	}
	if b.isHealthy() {
		t.Fatal("a peer record readmitted a failure-ejected member")
	}
	b.markSuccess()
	if !b.isHealthy() {
		t.Fatal("a successful probe or relay did not readmit the member")
	}
	eject()
	b.renew(time.Second, now.Add(200*time.Millisecond))
	if !b.isHealthy() {
		t.Fatal("a heartbeat did not readmit the member")
	}

	lapse := now.Add(1300 * time.Millisecond)
	if expired, _ := m.sweep(lapse); expired != 1 || b.isHealthy() {
		t.Fatalf("expired = %d, healthy = %v after the lease ran out; want 1, false", expired, b.isHealthy())
	}
	m.merge(rec(), lapse, time.Second)
	if b.isHealthy() {
		t.Fatal("a peer record readmitted a lapsed member")
	}
	if expired, _ := m.sweep(lapse.Add(500 * time.Millisecond)); expired != 0 {
		t.Fatalf("expired = %d while the adopted lease runs, want 0", expired)
	}
	if expired, _ := m.sweep(lapse.Add(1100 * time.Millisecond)); expired != 1 {
		t.Fatalf("expired = %d after the adopted lease ran out, want 1: lapsed was not cleared", expired)
	}
	if n := b.ejections.Load(); n != 3 {
		t.Fatalf("ejections = %d, want 3 (two failure streaks, one lapse)", n)
	}
}

// TestSweepForgetsOnlyTheLapsed: forgetting a member keeps every other
// member, whatever position the forgotten one held in the member list —
// here the first.
func TestSweepForgetsOnlyTheLapsed(t *testing.T) {
	now := time.Now()
	m := newMembership(nil)
	gone := newBackend("http://gone:1")
	stay := newBackend("http://stay:1")
	m.register(gone, 20*time.Millisecond, now)
	m.register(stay, time.Minute, now)
	if expired, _ := m.sweep(now.Add(30 * time.Millisecond)); expired != 1 {
		t.Fatalf("expired = %d after the short lease ran out, want 1", expired)
	}
	if _, forgotten := m.sweep(now.Add(time.Second)); forgotten != 1 {
		t.Fatalf("forgotten = %d past ten lapsed TTLs, want 1", forgotten)
	}
	members, _ := m.snapshot()
	if names := namesOf(members); len(names) != 1 || names[0] != stay.name {
		t.Fatalf("members after forgetting %s = %v, want only %s", gone.name, names, stay.name)
	}
}

// TestMinimalRemapAcrossJoinLeave: the routing layer's own candidate
// ordering obeys the ring's minimal-remap guarantee across a membership
// change — a session moves only onto a joiner or off a leaver, never
// between two unaffected members.
func TestMinimalRemapAcrossJoinLeave(t *testing.T) {
	ws := startWorkers(t, 3, 2, nil)
	rt, ts := newTestRouter(t, ws, nil)
	w4 := newFakeWorker(t, "w3", 2, nil)

	const sessions = 40
	before := make([]string, sessions)
	for s := range before {
		before[s] = rt.candidates(fmt.Sprintf("sess-%d", s))[0].name
	}

	registerWorker(t, ts.URL, w4.ts.URL, 0)
	moved := 0
	for s := range before {
		owner := rt.candidates(fmt.Sprintf("sess-%d", s))[0].name
		if owner == before[s] {
			continue
		}
		moved++
		if owner != w4.ts.URL {
			t.Fatalf("session %d moved %s -> %s, but only the joiner may gain sessions", s, before[s], owner)
		}
	}
	if moved == 0 {
		t.Fatalf("joiner claimed no sessions out of %d; the remap check proved nothing", sessions)
	}

	afterJoin := make([]string, sessions)
	for s := range afterJoin {
		afterJoin[s] = rt.candidates(fmt.Sprintf("sess-%d", s))[0].name
	}
	deregisterWorker(t, ts.URL, w4.ts.URL)
	for s := range afterJoin {
		owner := rt.candidates(fmt.Sprintf("sess-%d", s))[0].name
		if afterJoin[s] == w4.ts.URL {
			if owner != before[s] {
				t.Fatalf("session %d did not return to its pre-join owner: %s != %s", s, owner, before[s])
			}
			continue
		}
		if owner != afterJoin[s] {
			t.Fatalf("session %d moved %s -> %s though neither was the leaver", s, afterJoin[s], owner)
		}
	}
}

// TestRetryAfterDerived: the Retry-After hints are derived from the
// configured probe and lease cadences, not hardcoded.
func TestRetryAfterDerived(t *testing.T) {
	ws := startWorkers(t, 1, 2, nil)
	rt, ts := newTestRouter(t, ws, func(c *Config) {
		c.HealthInterval = 4 * time.Second
		c.DefaultLease = 60 * time.Second
	})
	if got := rt.retryAfterLoad(); got != "8" {
		t.Fatalf("retryAfterLoad = %q, want 8 (two 4s probe intervals)", got)
	}
	if got := rt.retryAfterMembership(); got != "15" {
		t.Fatalf("retryAfterMembership = %q, want 15 (a quarter of the 60s lease)", got)
	}

	// And the header actually carries the derived value on a flux 503.
	rt.Drain()
	status, _, hdr := generate(t, ts.URL, "", nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining router answered %d, want 503", status)
	}
	if got := hdr.Get("Retry-After"); got != "15" {
		t.Fatalf("draining Retry-After = %q, want the lease-derived 15", got)
	}
}

// TestJitteredBackoffBounds: every draw stays in [d/2, d] and the draws
// are not constant — the desynchronization the jitter exists for.
func TestJitteredBackoffBounds(t *testing.T) {
	const d = 10 * time.Millisecond
	seen := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		got := httpapi.JitteredBackoff(d)
		if got < d/2 || got > d {
			t.Fatalf("JitteredBackoff(%v) = %v outside [%v, %v]", d, got, d/2, d)
		}
		seen[got] = true
	}
	if len(seen) < 2 {
		t.Fatal("64 jittered draws were all identical; backoff is not jittered")
	}
	if got := httpapi.JitteredBackoff(0); got != 0 {
		t.Fatalf("JitteredBackoff(0) = %v, want 0", got)
	}
}

// TestMembershipRace hammers register/renew/expire/deregister while
// traffic, candidate selection, and stats readers run — the -race proof
// that snapshot readers and copy-on-write mutations do not collide.
func TestMembershipRace(t *testing.T) {
	ws := startWorkers(t, 2, 2, nil)
	rt, ts := newTestRouter(t, ws, nil)
	w3 := newFakeWorker(t, "w2", 2, nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	time.AfterFunc(300*time.Millisecond, func() { close(stop) })
	running := func() bool {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}

	// Join/leave flapping.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for running() {
			registerWorker(t, ts.URL, w3.ts.URL, 0)
			deregisterWorker(t, ts.URL, w3.ts.URL)
		}
	}()
	// A constantly-expiring unreachable member keeps the sweep busy.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for running() {
			registerWorker(t, ts.URL, "http://127.0.0.1:1", 20)
			time.Sleep(5 * time.Millisecond)
		}
	}()
	// Traffic (keyed and unkeyed) relays against whatever snapshot it got;
	// some requests may land on flapping members and fail — the race
	// detector, not the status code, is the assertion here.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; running(); i++ {
				session := ""
				if i%2 == 0 {
					session = fmt.Sprintf("sess-%d-%d", c, i%5)
				}
				body := []byte(fmt.Sprintf(`{"prompt":"the king","tokens":2,"session":%q}`, session))
				resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}
		}(c)
	}
	// Readers: stats and raw candidate selection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; running(); i++ {
			rt.Stats()
			rt.candidates(fmt.Sprintf("sess-%d", i%7))
			rt.candidates("")
		}
	}()
	wg.Wait()

	// The fleet must still be coherent: both seeds present and healthy.
	waitFor(t, "seed fleet healthy after the churn storm", func() bool {
		st := rt.Stats()
		h := 0
		for _, u := range urlsOf(ws) {
			if b, ok := backendIn(st, u); ok && b.Healthy {
				h++
			}
		}
		return h == len(ws)
	})
	if status, _, _ := generate(t, ts.URL, "after-storm", nil); status != http.StatusOK {
		t.Fatalf("post-storm request failed with %d", status)
	}
}

// TestDrainDeregisterRejoinRoundTrip runs the full worker lifecycle on
// real llm-serve stacks: join via Joiner, drain → graceful deregister via
// the worker's own /v1/drain hook, then a fresh stack rejoining on the
// SAME address as a brand-new member — with routed traffic working at
// every step.
func TestDrainDeregisterRejoinRoundTrip(t *testing.T) {
	m := workerModel()

	rt, err := New(Config{RetryBackoff: time.Millisecond, HealthInterval: 20 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	// startStack boots one real worker on addr (":0" picks a port) whose
	// drain hook deregisters — the llm-serve wiring in miniature.
	startStack := func(addr string) (base string, ln net.Listener, hs *http.Server, stop func()) {
		t.Helper()
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		srv := serve.New(m, serve.Config{})
		base = "http://" + ln.Addr().String()
		var joiner *httpapi.Joiner
		h := httpapi.New(srv, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := joiner.Leave(ctx); err != nil {
				t.Errorf("leave on drain: %v", err)
			}
		})
		hs = &http.Server{Handler: h}
		go hs.Serve(ln)
		joiner, err = httpapi.StartJoiner(httpapi.JoinConfig{
			Routers: []string{front.URL}, Self: base,
			Lease: 200 * time.Millisecond, Interval: 40 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		stop = func() {
			joiner.Stop()
			hs.Close()
			srv.Close()
		}
		return base, ln, hs, stop
	}

	base0, _, _, stop0 := startStack("127.0.0.1:0")
	defer stop0()
	base1, ln1, _, stop1 := startStack("127.0.0.1:0")
	defer stop1()
	waitFor(t, "both workers joined and healthy", func() bool {
		st := rt.Stats()
		if st.Members != 2 {
			return false
		}
		for _, b := range st.Backends {
			if !b.Healthy {
				return false
			}
		}
		return true
	})
	if status, _, _ := generate(t, front.URL, "roundtrip", nil); status != http.StatusOK {
		t.Fatalf("pre-drain request failed with %d", status)
	}

	// Drain worker 1 through its own endpoint: the drain hook must
	// deregister it, exactly as SIGTERM does in llm-serve.
	resp, err := http.Post(base1+"/v1/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitFor(t, "drained worker to deregister", func() bool {
		st := rt.Stats()
		return st.Members == 1 && st.Leaves == 1
	})
	for i := 0; i < 5; i++ {
		if status, _, _ := generate(t, front.URL, fmt.Sprintf("post-leave-%d", i), nil); status != http.StatusOK {
			t.Fatalf("request %d after graceful leave failed with %d", i, status)
		}
	}

	// Rejoin on the same address: after a deregister the membership is
	// really gone, so the fresh stack joins as a new member.
	stop1()
	rebase, _, _, stop2 := startStack(ln1.Addr().String())
	defer stop2()
	if rebase != base1 {
		t.Fatalf("restart landed on %s, want the old address %s", rebase, base1)
	}
	waitFor(t, "rejoined worker healthy", func() bool {
		st := rt.Stats()
		if st.Members != 2 || st.Joins != 3 {
			return false
		}
		b, ok := backendIn(st, base1)
		return ok && b.Healthy
	})
	if st := rt.Stats(); st.Epoch != 4 {
		t.Fatalf("epoch after join+join+leave+rejoin = %d, want 4", st.Epoch)
	}
	if status, _, _ := generate(t, front.URL, "after-rejoin", nil); status != http.StatusOK {
		t.Fatalf("post-rejoin request failed with %d", status)
	}
	_ = base0
}
