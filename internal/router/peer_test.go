// Router-HA peer sync tests: replicated routers converging on one
// membership through anti-entropy and tombstones — plus the readiness gate
// and the -race coherence storm.

package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/failpoint"
)

// newPeeredRouters starts n routers over the same seed workers, each
// configured with every other as a peer, on real listeners (peer URLs must
// exist before construction, so listeners are bound first).
func newPeeredRouters(t *testing.T, n int, ws []*fakeWorker, mut func(*Config)) ([]*Router, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	rts := make([]*Router, n)
	for i := range rts {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cfg := Config{
			Backends:       urlsOf(ws),
			Peers:          peers,
			SyncInterval:   25 * time.Millisecond,
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
		ts := httptest.NewUnstartedServer(rt)
		ts.Listener.Close()
		ts.Listener = lns[i]
		ts.Start()
		t.Cleanup(ts.Close)
		rts[i] = rt
	}
	return rts, urls
}

// statsFor fetches a router's Stats over HTTP, as the E26 harness does.
func statsFor(t *testing.T, url string) Stats {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// postSync POSTs raw records to a router's /v1/sync, playing a peer.
func postSync(t *testing.T, url string, recs []syncRecord) {
	t.Helper()
	body, _ := json.Marshal(syncRequest{Members: recs})
	resp, err := http.Post(url+"/v1/sync", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync: status %d", resp.StatusCode)
	}
}

// TestPeerRegistrationConverges: a worker registering at ONE router
// appears at its peer — leased, routable, and with matching ring digests —
// without ever talking to that peer directly.
func TestPeerRegistrationConverges(t *testing.T) {
	ws := startWorkers(t, 2, 2, nil)
	rts, urls := newPeeredRouters(t, 2, ws, nil)

	w := newFakeWorker(t, "w2", 2, nil)
	grant := registerWorker(t, urls[0], w.ts.URL, 1000)
	if !grant.Created {
		t.Fatalf("grant = %+v, want created", grant)
	}
	waitFor(t, "peer to learn the member", func() bool {
		b, ok := backendIn(rts[1].Stats(), w.ts.URL)
		return ok && b.Leased
	})
	a, b := rts[0].Stats(), rts[1].Stats()
	if a.RingDigest != b.RingDigest {
		t.Fatalf("ring digests diverge after convergence: %s vs %s", a.RingDigest, b.RingDigest)
	}
	if a.Members != 3 || b.Members != 3 {
		t.Fatalf("members = %d/%d, want 3/3", a.Members, b.Members)
	}

	// The peer-learned member must own the same arcs on both routers: find
	// a session the ring places on it and route through the peer.
	names := append(urlsOf(ws), w.ts.URL)
	rg := newRing(names)
	session := ""
	for s := 0; s < 64; s++ {
		key := fmt.Sprintf("sess-%d", s)
		if names[rg.successors(key)[0]] == w.ts.URL {
			session = key
			break
		}
	}
	if session == "" {
		t.Fatal("no session hashed to the joined worker in 64 tries")
	}
	if status, got, _ := generate(t, urls[1], session, nil); status != http.StatusOK || got != "w2" {
		t.Fatalf("keyed request via the peer router: status %d completion %q", status, got)
	}
}

// TestPeerGossipKeepsLeaseAlive: a worker heartbeating only router A stays
// leased at router B through gossiped renewals — B's copy of the lease
// must never lapse while A keeps hearing from the worker.
func TestPeerGossipKeepsLeaseAlive(t *testing.T) {
	ws := startWorkers(t, 1, 2, nil)
	rts, urls := newPeeredRouters(t, 2, ws, nil)

	w := newFakeWorker(t, "w1", 2, nil)
	const leaseMS = 150
	registerWorker(t, urls[0], w.ts.URL, leaseMS)
	waitFor(t, "peer to learn the member", func() bool {
		_, ok := backendIn(rts[1].Stats(), w.ts.URL)
		return ok
	})

	// Heartbeat A only, well inside the TTL; stop when the test ends.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(30 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				body, _ := json.Marshal(map[string]any{"url": w.ts.URL, "lease_ms": leaseMS})
				if resp, err := http.Post(urls[0]+"/v1/register", "application/json", bytes.NewReader(body)); err == nil {
					resp.Body.Close()
				}
			}
		}
	}()

	// Watch B for four TTLs: the lease must stay un-lapsed throughout.
	deadline := time.Now().Add(4 * leaseMS * time.Millisecond)
	for time.Now().Before(deadline) {
		b, ok := backendIn(rts[1].Stats(), w.ts.URL)
		if !ok {
			t.Fatal("peer dropped the member while its origin lease was being renewed")
		}
		if b.Leased && b.LeaseMS < -int64(leaseMS) {
			t.Fatalf("peer's lease copy lapsed %dms despite gossiped renewals", -b.LeaseMS)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPeerTombstoneBlocksResurrection: after a deregister propagates, a
// lagging gossip of the dead worker's old lease must NOT resurrect it —
// the tombstone wins — while a genuine re-register (version above the
// tombstone) rejoins and propagates back to the peer.
func TestPeerTombstoneBlocksResurrection(t *testing.T) {
	ws := startWorkers(t, 1, 2, nil)
	rts, urls := newPeeredRouters(t, 2, ws, nil)

	w := newFakeWorker(t, "w1", 2, nil)
	registerWorker(t, urls[0], w.ts.URL, 60_000)
	waitFor(t, "peer to learn the member", func() bool {
		_, ok := backendIn(rts[1].Stats(), w.ts.URL)
		return ok
	})

	deregisterWorker(t, urls[0], w.ts.URL)
	waitFor(t, "peer to drop the member", func() bool {
		_, ok := backendIn(rts[1].Stats(), w.ts.URL)
		return !ok
	})

	// Replay the stale join (version 1, fresh age, long lease) at B — what
	// a lagging peer's anti-entropy would carry. The tombstone (version 2)
	// must block it.
	postSync(t, urls[1], []syncRecord{{URL: w.ts.URL, Version: 1, LeaseMS: 60_000, AgeMS: 0}})
	time.Sleep(50 * time.Millisecond)
	if _, ok := backendIn(rts[1].Stats(), w.ts.URL); ok {
		t.Fatal("stale gossip resurrected a deregistered member over its tombstone")
	}

	// A genuine rejoin at B lands above the tombstone and gossips to A.
	grant := registerWorker(t, urls[1], w.ts.URL, 60_000)
	if !grant.Created {
		t.Fatalf("rejoin grant = %+v, want created", grant)
	}
	waitFor(t, "rejoin to reach the other router", func() bool {
		b, ok := backendIn(rts[0].Stats(), w.ts.URL)
		return ok && b.Leased
	})
	waitFor(t, "digests to reconverge", func() bool {
		return rts[0].Stats().RingDigest == rts[1].Stats().RingDigest
	})
}

// TestPeerNegativeAgeClamped: age_ms arrives from outside the program. A
// negative one would date the renewal in the future, so the adopted lease
// would outlive its TTL by |age|; it must run no longer than its TTL and
// lapse like any other.
func TestPeerNegativeAgeClamped(t *testing.T) {
	ws := startWorkers(t, 1, 2, nil)
	rt, ts := newTestRouter(t, ws, nil)
	const name, leaseMS = "http://127.0.0.1:1", 50
	postSync(t, ts.URL, []syncRecord{{URL: name, Version: 1, LeaseMS: leaseMS, AgeMS: -60_000}})
	b, ok := backendIn(rt.Stats(), name)
	if !ok {
		t.Fatal("the peer record was not adopted")
	}
	if b.LeaseMS > leaseMS {
		t.Fatalf("adopted lease has %dms left, more than its %dms TTL", b.LeaseMS, leaseMS)
	}
	waitFor(t, "the adopted lease to lapse", func() bool {
		return rt.Stats().LeaseExpiries == 1
	})
}

// aeOp is one step of an anti-entropy schedule over three membership
// values: a worker registering (or renewing) or deregistering at router r,
// a push-pull exchange between r and peer, or a record set merged at r —
// given (recs), or one router r itself exported at an earlier step
// (replay), which is what a lagging peer delivers.
type aeOp struct {
	kind    string // "reg", "dereg", "sync", "merge", "replay"
	r, peer int
	worker  string
	lease   time.Duration
	// drop loses part of a "sync": 1 the push (neither side merges), 2 the
	// reply (only the peer merges).
	drop int
	recs []syncRecord
	pick int // "replay": which earlier export, modulo how many there are
}

// versionAt is the transition version m holds for name, as a member or a
// tombstone (0 when it holds neither).
func versionAt(m *membership, name string) uint64 {
	if t := m.tomb[name]; t != nil {
		return t.version
	}
	for _, b := range m.members {
		if b.name == name {
			v, _ := b.lease()
			return v
		}
	}
	return 0
}

// runAntiEntropy plays ops against three routers that share one seed, one
// virtual millisecond per op, then — with round set — runs one full round
// of exchanges between every pair, and returns the routers. fresh maps
// each worker whose latest registration created a member at a router that
// already knew the worker's latest transition (its own version was the
// highest any router held), with no deregistration of it anywhere since,
// to the version created: a join or rejoin nothing has overtaken.
func runAntiEntropy(ops []aeOp, round bool) (ms []*membership, fresh map[string]uint64) {
	now := time.UnixMilli(1_700_000_000_000)
	ms, fresh = make([]*membership, 3), map[string]uint64{}
	for i := range ms {
		seed := newBackend("http://seed:1")
		ms[i] = newMembership([]*backend{seed})
	}
	exchange := func(a, b, drop int) {
		if drop == 1 {
			return
		}
		ms[b].merge(ms[a].export(now), now, time.Second)
		if drop == 2 {
			return
		}
		ms[a].merge(ms[b].export(now), now, time.Second)
	}
	var history [][]syncRecord
	for _, o := range ops {
		now = now.Add(time.Millisecond)
		switch o.kind {
		case "reg":
			own, highest := versionAt(ms[o.r], o.worker), uint64(0)
			for _, m := range ms {
				highest = max(highest, versionAt(m, o.worker))
			}
			b := newBackend(o.worker)
			if created, _ := ms[o.r].register(b, o.lease, now); created && own == highest {
				fresh[o.worker] = b.version
			}
		case "dereg":
			delete(fresh, o.worker)
			ms[o.r].deregister(o.worker, now)
		case "sync":
			exchange(o.r, o.peer, o.drop)
		case "merge":
			ms[o.r].merge(o.recs, now, time.Second)
		case "replay":
			if len(history) > 0 {
				ms[o.r].merge(history[o.pick%len(history)], now, time.Second)
			}
		}
		history = append(history, ms[o.r].export(now))
	}
	if round {
		now = now.Add(time.Millisecond)
		exchange(0, 1, 0)
		exchange(0, 2, 0)
		exchange(1, 2, 0)
	}
	return ms, fresh
}

// joinOf is what the routers must converge on: per worker, the highest
// transition version any of them holds, as a member version — or nothing
// when that version is a tombstone's (a tie goes to the tombstone).
func joinOf(ms []*membership) map[string]uint64 {
	member, tomb := map[string]uint64{}, map[string]uint64{}
	for _, m := range ms {
		for _, b := range m.members {
			if v, ttl := b.lease(); ttl > 0 {
				member[b.name] = max(member[b.name], v)
			}
		}
		for name, t := range m.tomb {
			tomb[name] = max(tomb[name], t.version)
		}
	}
	for name, v := range member {
		if tomb[name] >= v {
			delete(member, name)
		}
	}
	return member
}

// randomAntiEntropy draws a schedule of registrations, renewals,
// deregistrations and rejoins of four workers at random routers,
// interleaved with exchanges (a quarter of them partly dropped) and
// replays. Leases are seconds long against a schedule of milliseconds, so
// no record expires in transit.
func randomAntiEntropy(seed uint64) []aeOp {
	rng := rand.New(rand.NewPCG(seed, 0))
	ops := make([]aeOp, 60)
	for i := range ops {
		o := aeOp{r: rng.IntN(3), worker: fmt.Sprintf("http://w%d:1", rng.IntN(4))}
		switch p := rng.IntN(20); {
		case p < 8:
			o.kind, o.lease = "reg", time.Duration(5+rng.IntN(25))*time.Second
		case p < 12:
			o.kind = "dereg"
		case p < 18:
			o.kind, o.peer = "sync", (o.r+1+rng.IntN(2))%3
			if rng.IntN(4) == 0 {
				o.drop = 1 + rng.IntN(2)
			}
		default:
			o.kind, o.pick = "replay", rng.IntN(1<<16)
		}
		ops[i] = o
	}
	return ops
}

// TestAntiEntropyConverges: with no relay of individual changes, one full
// round of push-pull exchanges between every pair of routers makes them
// agree, whatever happened before — the join of all their states, per
// member the highest transition version anywhere, a tombstone winning a
// tie — and keeps every join or rejoin that no later leave overtook. The
// fixed row is TestPeerTombstoneBlocksResurrection's stale version-1
// replay, whose outcome is pinned: the rejoin (version 3) survives
// everywhere.
func TestAntiEntropyConverges(t *testing.T) {
	const w = "http://w:1"
	type row struct {
		name string
		ops  []aeOp
		want map[string]uint64 // pinned member versions, when the row has them
	}
	rows := []row{{
		name: "stale v1 replay after a leave, then a rejoin",
		ops: []aeOp{
			{kind: "reg", r: 0, worker: w, lease: time.Minute},
			{kind: "sync", r: 0, peer: 1},
			{kind: "dereg", r: 0, worker: w},
			{kind: "sync", r: 0, peer: 1},
			{kind: "merge", r: 1, recs: []syncRecord{{URL: w, Version: 1, LeaseMS: 60_000, AgeMS: 0}}},
			{kind: "reg", r: 1, worker: w, lease: time.Minute},
		},
		want: map[string]uint64{w: 3},
	}}
	for seed := uint64(1); seed <= 50; seed++ {
		rows = append(rows, row{name: fmt.Sprintf("seed %d", seed), ops: randomAntiEntropy(seed)})
	}

	rejoins := 0
	for _, rw := range rows {
		t.Run(rw.name, func(t *testing.T) {
			want := rw.want
			if want == nil {
				before, _ := runAntiEntropy(rw.ops, false)
				want = joinOf(before)
			}
			ms, fresh := runAntiEntropy(rw.ops, true)
			for i, m := range ms {
				if m.digest() != ms[0].digest() {
					t.Fatalf("router %d digest %x != router 0 digest %x after a full round", i, m.digest(), ms[0].digest())
				}
				got := map[string]uint64{}
				for _, b := range m.members {
					if v, ttl := b.lease(); ttl > 0 {
						got[b.name] = v
					}
					if m.tomb[b.name] != nil {
						t.Fatalf("router %d holds %s as a member and a tombstone", i, b.name)
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("router %d members %v, want %v", i, got, want)
				}
				for name, v := range fresh {
					if got[name] != v {
						t.Fatalf("router %d holds %s at version %d; its registration at version %d was never overtaken", i, name, got[name], v)
					}
				}
			}
			for _, v := range fresh {
				if v >= 3 && rw.want == nil {
					rejoins++
				}
			}
		})
	}
	if rejoins == 0 {
		t.Fatal("no seeded schedule ended with a rejoin above a tombstone; the property proved nothing about them")
	}
}

// TestPeerPartitionDivergesThenHeals: with peer sync severed (failpoints
// on both the send and receive sites), a router cut off from the worker's
// heartbeats watches its lease copy lapse — honest divergence — and once
// the partition heals, gossip revives the lease without any re-register.
//
// The test heartbeats the origin itself, once per poll of each wait, so A's
// lease is fresh whenever a condition is checked however the scheduler
// treats the test's goroutines; a background ticker starved past the TTL
// used to let A's lease lapse for reasons that had nothing to do with the
// partition. What the partition could break at A is asserted instead of a
// timing: the member stays, and A records no leave, no forgotten member and
// no ring change.
func TestPeerPartitionDivergesThenHeals(t *testing.T) {
	ws := startWorkers(t, 1, 2, nil)
	rts, urls := newPeeredRouters(t, 2, ws, nil)

	w := newFakeWorker(t, "w1", 2, nil)
	const leaseMS = 150
	renewing := func(cond func() bool) func() bool {
		return func() bool {
			registerWorker(t, urls[0], w.ts.URL, leaseMS)
			return cond()
		}
	}
	waitFor(t, "peer to learn the member", renewing(func() bool {
		_, ok := backendIn(rts[1].Stats(), w.ts.URL)
		return ok
	}))

	// Sever peer sync in both directions (the registry is process-global,
	// which here IS the full partition).
	before := rts[0].Stats()
	if err := failpoint.Arm(failpoint.Plan{Seed: 1, Rules: []failpoint.Rule{
		{Site: failpoint.RouterPeerSend, Kind: failpoint.KindError},
		{Site: failpoint.RouterPeerRecv, Kind: failpoint.KindError},
	}}); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disarm()

	waitFor(t, "partitioned peer's lease copy to lapse", renewing(func() bool {
		b, ok := backendIn(rts[1].Stats(), w.ts.URL)
		return ok && b.LeaseMS < 0
	}))
	// A, which hears the worker first-hand, must be unaffected.
	after := rts[0].Stats()
	if _, ok := backendIn(after, w.ts.URL); !ok {
		t.Fatal("origin router dropped the member during the peer partition")
	}
	if after.Leaves != before.Leaves || after.Forgotten != before.Forgotten || after.RingDigest != before.RingDigest {
		t.Fatalf("origin router's membership changed during the peer partition: leaves %d→%d, forgotten %d→%d, digest %s→%s",
			before.Leaves, after.Leaves, before.Forgotten, after.Forgotten, before.RingDigest, after.RingDigest)
	}

	failpoint.Disarm()
	waitFor(t, "healed peer to revive the lease via gossip", renewing(func() bool {
		b, ok := backendIn(rts[1].Stats(), w.ts.URL)
		return ok && b.LeaseMS > 0 && b.Healthy
	}))
	waitFor(t, "digests to reconverge", renewing(func() bool {
		return rts[0].Stats().RingDigest == rts[1].Stats().RingDigest
	}))
}

// TestReadyGateWithDeadPeer: a router whose only peer is unreachable must
// still become ready — replication exists so that a dead router does not
// take the tier down, so a dead PEER must never gate serving. An
// empty-fleet router stays 503 until a backend exists and is healthy.
func TestReadyGateWithDeadPeer(t *testing.T) {
	ws := startWorkers(t, 1, 2, nil)
	// Bind-then-close: a guaranteed-dead peer address.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadPeer := "http://" + ln.Addr().String()
	ln.Close()

	rt, ts := newTestRouter(t, ws, func(c *Config) {
		c.Peers = []string{deadPeer}
		c.SyncInterval = 20 * time.Millisecond
	})
	waitFor(t, "readiness despite the dead peer", func() bool {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	st := rt.Stats()
	if !st.Converged {
		t.Fatal("router not converged after its initial sync round ran")
	}
	if len(st.Peers) != 1 || st.Peers[0].Syncs != 0 || st.Peers[0].Failures == 0 {
		t.Fatalf("peer stats = %+v, want only failures against the dead peer", st.Peers)
	}

	// No backends at all -> not ready, with the reason in the body.
	rtEmpty, tsEmpty := newTestRouter(t, nil, nil)
	_ = rtEmpty
	resp, err := http.Get(tsEmpty.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty-fleet /healthz = %d, want 503", resp.StatusCode)
	}
}

// TestPeerSyncRace is the -race coherence storm: two live peered routers
// exchanging anti-entropy at full tilt while registers, deregisters,
// sweeps, stats reads, and ring reads hammer both from many goroutines.
// The assertions are light — the test's job is making the race detector
// sweat; it ends by checking the storm converges once traffic stops.
func TestPeerSyncRace(t *testing.T) {
	ws := startWorkers(t, 1, 2, nil)
	rts, urls := newPeeredRouters(t, 2, ws, func(c *Config) {
		c.SyncInterval = 5 * time.Millisecond
		c.HealthInterval = 5 * time.Millisecond
	})

	const (
		actors  = 4
		rounds  = 40
		workers = 8
	)
	var wg sync.WaitGroup
	for a := 0; a < actors; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			rt, url := rts[a%2], urls[a%2]
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("http://10.255.%d.%d:1", a, i%workers)
				if i%3 == 2 {
					body, _ := json.Marshal(map[string]any{"url": name})
					if resp, err := http.Post(url+"/v1/deregister", "application/json", bytes.NewReader(body)); err == nil {
						resp.Body.Close()
					}
				} else {
					body, _ := json.Marshal(map[string]any{"url": name, "lease_ms": 40})
					if resp, err := http.Post(url+"/v1/register", "application/json", bytes.NewReader(body)); err == nil {
						resp.Body.Close()
					}
				}
				// Snapshot coherence: members and ring must always match.
				members, rg := rt.mem.snapshot()
				if idx := rg.successors(name); len(members) > 0 && len(idx) > 0 {
					_ = members[idx[0]]
				}
				_ = rt.Stats()
			}
		}(a)
	}
	wg.Wait()

	// Quiesce: short leases (40ms) all lapse, both routers sweep and forget
	// the storm's members, digests meet back at the seed fleet.
	waitFor(t, "storm to converge", func() bool {
		a, b := rts[0].Stats(), rts[1].Stats()
		return a.RingDigest == b.RingDigest
	})
}
