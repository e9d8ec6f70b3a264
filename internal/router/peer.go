// Router high availability: peer sync. One router process is a single
// point of failure no matter how replicated the worker fleet behind it is,
// so N llm-router instances run as peers (-peers), each holding the full
// lease-based membership state and converging on the same member set — and
// therefore, because placement is a pure function of membership, on the
// same consistent-hash ring and the same session→worker placement, with no
// coordination on the request path.
//
// Two channels keep peers converged:
//
//  1. Direct worker traffic. Workers register with and heartbeat EVERY
//     router (httpapi.Joiner with multiple -join URLs), so each router's
//     view is first-hand and a router that cold-starts with unreachable
//     peers still rebuilds the whole fleet within one heartbeat interval.
//     This is the fast path: a join or leave reaches every router the
//     worker can reach at once.
//  2. Anti-entropy. Every SyncInterval each router push-pulls its full
//     record set (leased members + tombstones) with every peer, healing
//     whatever heartbeats missed — a join or leave heard by one router
//     reaches the others within one interval, and a router partitioned
//     from a worker keeps that worker alive through a peer's gossiped
//     renewals.
//
// Convergence is per-member, ordered by a transition version (join and
// leave events) with renewal recency — carried as an age so wall-clock
// skew between routers cancels — breaking ties within a version; see
// membership.merge for the exact rules. Tombstones stop a lagging gossip
// of an old lease from resurrecting a deregistered worker. Gossip moves
// member sets and lease clocks, never health: whether a worker answers is
// first-hand knowledge each router gets from its own probes, relays and
// the worker's heartbeats (backend.go).

package router

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
	"repro/internal/httpapi"
)

// syncRecord is one member's replicated state on the peer-sync wire: the
// canonical URL, the membership-transition version, the granted lease, and
// the age of the last renewal (or, with Gone set, of the deregistration).
// Ages rather than absolute timestamps cross the wire so each router works
// exclusively in its own clock domain.
type syncRecord struct {
	URL     string `json:"url"`
	Version uint64 `json:"version"`
	Gone    bool   `json:"gone,omitempty"` // deregistration tombstone
	LeaseMS int64  `json:"lease_ms,omitempty"`
	AgeMS   int64  `json:"age_ms"`
}

// syncRequest is the POST /v1/sync body: the sender's full record set.
type syncRequest struct {
	Members []syncRecord `json:"members"`
}

// syncResponse answers with the receiver's full record set, making every
// exchange a push-pull: one round trip converges both directions.
type syncResponse struct {
	Members []syncRecord `json:"members"`
}

// peer is one configured peer router and the exchange bookkeeping against
// it, exported on /v1/stats.
type peer struct {
	url      string
	syncs    atomic.Uint64 // successful exchanges (initiated by this side)
	failures atomic.Uint64 // failed exchanges
	lastOK   atomic.Int64  // unix nanos of the last success; 0 = never
}

// syncLoop is the anti-entropy driver: an immediate first round (a cold
// router pulls peer state before its first tick — this is what gates
// readiness), then one push-pull with every peer per SyncInterval.
func (rt *Router) syncLoop() {
	defer rt.hwg.Done()
	rt.syncRound()
	rt.initialSync.Store(true)
	ticker := time.NewTicker(rt.cfg.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.quit:
			return
		case <-ticker.C:
			rt.syncRound()
		}
	}
}

// syncRound exchanges the full record set with every peer concurrently and
// returns when all exchanges finish, so one wedged peer cannot starve the
// others' freshness.
func (rt *Router) syncRound() {
	recs := rt.mem.export(time.Now())
	var wg sync.WaitGroup
	for _, p := range rt.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			rt.syncWith(p, recs)
		}(p)
	}
	wg.Wait()
	rt.nSyncRounds.Add(1)
}

// syncWith runs one push-pull exchange: POST recs to p, merge whatever p
// answers with. Failures are counted and otherwise dropped on the floor —
// the next anti-entropy tick (or the peer's own) retries; direct worker
// heartbeats keep this router serviceable meanwhile.
func (rt *Router) syncWith(p *peer, recs []syncRecord) {
	if err := failpoint.Inject(failpoint.RouterPeerSend); err != nil {
		p.failures.Add(1)
		return
	}
	body, err := json.Marshal(syncRequest{Members: recs})
	if err != nil {
		p.failures.Add(1)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), exchangeTimeout(rt.cfg.SyncInterval))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+"/v1/sync", bytes.NewReader(body))
	if err != nil {
		p.failures.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		p.failures.Add(1)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		p.failures.Add(1)
		return
	}
	var out syncResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		p.failures.Add(1)
		return
	}
	rt.applyMerge(out.Members)
	p.syncs.Add(1)
	p.lastOK.Store(time.Now().UnixNano())
}

// applyMerge folds peer records into local membership and charges the
// member-set changes to the same join/leave ledger direct registrations
// use — a member is a member regardless of which router heard it first.
func (rt *Router) applyMerge(recs []syncRecord) {
	if len(recs) == 0 {
		return
	}
	joins, leaves := rt.mem.merge(recs, time.Now(), rt.cfg.DefaultLease)
	rt.nJoins.Add(uint64(joins))
	rt.nLeaves.Add(uint64(leaves))
}

// handleSync serves POST /v1/sync: merge the peer's records, answer with
// the full local record set (the pull half of push-pull).
func (rt *Router) handleSync(w http.ResponseWriter, r *http.Request) {
	if httpapi.Inject(w, failpoint.RouterPeerRecv) {
		return
	}
	var req syncRequest
	if err := decodeBody(w, r, &req); err != nil {
		return
	}
	rt.nSyncsIn.Add(1)
	rt.applyMerge(req.Members)
	httpapi.WriteJSON(w, http.StatusOK, syncResponse{Members: rt.mem.export(time.Now())})
}

// ready is the router's readiness predicate, the /healthz gate a client
// or a TCP balancer fails over between routers on: the initial peer-sync
// round has completed (trivially true with no peers) and at least one
// member is healthy. The sync gate is a cold-start gate only — it never re-latches,
// and it does not require the round to SUCCEED, because a router whose
// peers are all down must still serve (that is the entire point of
// replicating it); membership freshness is then carried by direct worker
// heartbeats.
func (rt *Router) ready() (ok bool, why string) {
	if !rt.initialSync.Load() {
		return false, "initial peer sync pending"
	}
	members, _ := rt.mem.snapshot()
	for _, b := range members {
		if b.isHealthy() {
			return true, ""
		}
	}
	return false, "no healthy backend"
}
