package router

import (
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/failpoint"
	"repro/internal/httpapi"
)

// Lease TTL clamp bounds for /v1/register and peer records. The floor keeps
// a typo'd lease_ms from flapping membership at sweep speed; the ceiling
// keeps a crashed worker from squatting in the ring for an hour.
const (
	minLease = 20 * time.Millisecond
	maxLease = 10 * time.Minute
)

// clampLease is the lease actually granted for a requested one: def when
// none was requested, then clamped to [minLease, maxLease].
func clampLease(requested, def time.Duration) time.Duration {
	if requested <= 0 {
		requested = def
	}
	return min(max(requested, minLease), maxLease)
}

// forgetFactor is the forget horizon in lease TTLs: a member whose lease
// has been lapsed this many TTLs (and that no probe can reach) is removed
// from the ring entirely, and a tombstone this old is dropped.
const forgetFactor = 10

// membership is the router's dynamic view of the fleet: the current member
// set, the consistent-hash ring built over exactly that set, and the epoch
// stamping this (members, ring) version. The three always change together
// under mu; readers take one snapshot and work ring indices against the
// matching members slice. Mutations are copy-on-write — the members slice
// is never edited in place — so a snapshot stays internally consistent for
// as long as a relay holds it, even across concurrent joins and leaves.
//
// Epoch semantics: the epoch counts ring rebuilds. It starts at 0 over the
// seed fleet and increments once per membership change — a new worker
// joining, an explicit deregistration, or a sweep forgetting lapsed
// members (one increment per rebuild, however many members it removed).
// Lease renewal, expiry ejection, and probe ejection/readmission do NOT
// touch the epoch: they change health, not membership, and the ring —
// hence session placement for every healthy member — is a pure function
// of membership. That is what keeps remaps minimal: an ejected worker's
// sessions fail over along the unchanged successor order and snap back on
// readmission; only a genuine join/leave moves ownership, and then only
// of the arcs the joined/left member claims or frees.
//
// Members are of one kind: a backend with a lease. Seeds are the members
// whose TTL is 0 (their lease never expires); they are local configuration,
// so export, merge and the sweep pass over them.
type membership struct {
	mu      sync.RWMutex
	members []*backend
	ring    *ring
	epoch   uint64
	// tomb holds deregistration tombstones for peer sync: a member that
	// left keeps a versioned marker so a lagging gossip of its old lease
	// cannot resurrect it. A genuine rejoin re-registers with a version
	// above the tombstone's and clears it; stale tombstones are garbage-
	// collected by the sweep on the same forget horizon as lapsed members.
	tomb map[string]*tombstone
}

// tombstone marks a deregistered member for peer sync. ttl is the lease the
// member last held, kept for the forget-horizon computation.
type tombstone struct {
	version uint64
	at      time.Time
	ttl     time.Duration
}

func newMembership(seeds []*backend) *membership {
	m := &membership{members: seeds, tomb: make(map[string]*tombstone)}
	m.ring = newRing(namesOf(seeds))
	return m
}

func namesOf(bs []*backend) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.name
	}
	return out
}

// snapshot returns the current (members, ring) pair. The returned slice is
// immutable by construction; ring indices are valid into exactly it.
func (m *membership) snapshot() ([]*backend, *ring) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.members, m.ring
}

// Epoch returns the current membership version.
func (m *membership) Epoch() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.epoch
}

// rebuildLocked rebuilds the ring over the current member set and bumps
// the epoch. Callers hold mu.
func (m *membership) rebuildLocked() {
	m.ring = newRing(namesOf(m.members))
	m.epoch++
}

// without returns a copy of bs minus its element i: member slices are
// copy-on-write, never edited in place.
func without(bs []*backend, i int) []*backend {
	return append(append(make([]*backend, 0, len(bs)-1), bs[:i]...), bs[i+1:]...)
}

// register adds b as a leased member, or — when a member with the same
// canonical URL already exists — renews that member's lease instead (the
// heartbeat path, and how a restarted worker readmits itself). Only a
// genuinely new member changes the ring. A new member's transition version
// is stamped above any tombstone left by a previous incarnation, so peers
// adopt the rejoin over the remembered leave; renewals do NOT bump the
// version (see the version comment on backend).
func (m *membership) register(b *backend, lease time.Duration, now time.Time) (created bool, epoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.members {
		if e.name == b.name {
			e.renew(lease, now)
			return false, m.epoch
		}
	}
	// b is not shared until it joins m.members below.
	b.version = 1
	if t := m.tomb[b.name]; t != nil {
		b.version = t.version + 1
		delete(m.tomb, b.name)
	}
	b.renew(lease, now)
	m.members = append(append([]*backend(nil), m.members...), b)
	m.rebuildLocked()
	return true, m.epoch
}

// deregister removes the named member — the graceful-leave path. Removing
// an unknown name is a no-op (deregistration races with expiry sweeps and
// process shutdown, so it must be idempotent). A leased member leaves a
// versioned tombstone behind for peer sync; seeds (config-owned) do not.
func (m *membership) deregister(name string, now time.Time) (removed bool, epoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, e := range m.members {
		if e.name == name {
			m.members = without(m.members, i)
			if version, ttl := e.lease(); ttl > 0 {
				m.tomb[name] = &tombstone{version: version + 1, at: now, ttl: ttl}
			}
			m.rebuildLocked()
			return true, m.epoch
		}
	}
	return false, m.epoch
}

// syncRecord renders a tombstone for a peer-sync exchange.
func (t *tombstone) syncRecord(now time.Time, name string) syncRecord {
	return syncRecord{
		URL:     name,
		Version: t.version,
		Gone:    true,
		LeaseMS: t.ttl.Milliseconds(),
		AgeMS:   now.Sub(t.at).Milliseconds(),
	}
}

// export snapshots every gossiped record — leased members and tombstones —
// for one peer-sync exchange. Seed members are excluded: each router's
// seed list is local configuration, not replicated state.
func (m *membership) export(now time.Time) []syncRecord {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]syncRecord, 0, len(m.members)+len(m.tomb))
	for _, b := range m.members {
		if rec, ok := b.syncRecord(now); ok {
			out = append(out, rec)
		}
	}
	for name, t := range m.tomb {
		out = append(out, t.syncRecord(now, name))
	}
	return out
}

// merge folds one peer's records into the local membership and reports the
// member-set changes it caused. The rules make every router converge on
// the same member set regardless of delivery order, so anti-entropy alone
// is enough:
//
//   - records about local seed members are ignored (config beats gossip);
//   - higher transition version wins outright (a rejoin beats the leave it
//     followed; a leave beats the join it followed);
//   - equal versions of a live member merge by renewal recency (ages, so
//     clock skew cancels) — same incarnation, later heartbeat (backend.adopt,
//     which moves the lease clock and never readmits an ejected member);
//   - equal versions with a tombstone on either side resolve toward the
//     tombstone (removal is safe: a live worker's next direct heartbeat
//     re-registers above the tombstone within one interval);
//   - an unknown member whose gossiped lease already expired in transit is
//     not adopted — peers exchange live state, not corpses.
//
// Lease adoption computes expiry from the origin's renewal instant, so a
// member kept alive by heartbeats to SOME router keeps its lease running on
// every router that syncs with it, within one sync interval. A member a
// router has ejected stays ejected there until that router's own probe,
// relay or heartbeat readmits it.
func (m *membership) merge(recs []syncRecord, now time.Time, defaultLease time.Duration) (joins, leaves int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	changed := false
	for _, rec := range recs {
		name, err := httpapi.BaseURL(rec.URL)
		if err != nil {
			continue
		}
		var e *backend
		var version uint64
		var ttl time.Duration
		idx := slices.IndexFunc(m.members, func(b *backend) bool { return b.name == name })
		if idx >= 0 {
			e = m.members[idx]
			if version, ttl = e.lease(); ttl == 0 {
				continue // seeds are config-owned
			}
		}
		// An age is a duration since an event, so it is never negative from
		// a correct peer; a negative one would date the renewal in the future
		// and let the lease outlive its TTL.
		eventAt := now.Add(-time.Duration(max(rec.AgeMS, 0)) * time.Millisecond)
		lease := clampLease(time.Duration(rec.LeaseMS)*time.Millisecond, defaultLease)
		if rec.Gone {
			if e != nil {
				if rec.Version >= version {
					m.members = without(m.members, idx)
					m.tomb[name] = &tombstone{version: rec.Version, at: eventAt, ttl: ttl}
					leaves++
					changed = true
				}
			} else if t := m.tomb[name]; t == nil || rec.Version > t.version {
				m.tomb[name] = &tombstone{version: rec.Version, at: eventAt, ttl: lease}
			}
			continue
		}
		if t := m.tomb[name]; t != nil && t.version >= rec.Version {
			continue // the remembered leave is at least as recent
		}
		if e != nil {
			e.adopt(rec.Version, lease, eventAt, now)
			continue
		}
		if !eventAt.Add(lease).After(now) {
			continue // expired in transit
		}
		b := newBackend(name)
		b.adopt(rec.Version, lease, eventAt, now)
		delete(m.tomb, name)
		m.members = append(append([]*backend(nil), m.members...), b)
		joins++
		changed = true
	}
	if changed {
		m.rebuildLocked()
	}
	return joins, leaves
}

// sweep advances every member's lease clock: newly expired leases eject
// their member (exactly like a failed probe crossing the threshold), and
// members lapsed past the forget horizon — with no probe reaching them
// either — are removed from the ring (backend.expireIfDue decides both).
func (m *membership) sweep(now time.Time) (expired, forgotten int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	keep := make([]*backend, 0, len(m.members))
	for _, b := range m.members {
		newly, forget := b.expireIfDue(now)
		if newly {
			expired++
		}
		if forget {
			forgotten++
			continue
		}
		keep = append(keep, b)
	}
	if forgotten > 0 {
		m.members = keep
		m.rebuildLocked()
	}
	// Tombstone GC on the same horizon: once every peer has had ample time
	// to learn a leave, the marker (and its resurrection guard) can go — a
	// version-1 re-register after this point is indistinguishable from a
	// brand-new member, which is exactly what it is by then.
	for name, t := range m.tomb {
		if now.Sub(t.at) > forgetFactor*t.ttl {
			delete(m.tomb, name)
		}
	}
	return expired, forgotten
}

// digest hashes the member set — its sorted canonical URLs — into one
// comparable word. Because the ring is a pure function of the member
// names, equal digests mean identical rings and identical session
// placement: the "epoch-equivalent" check two routers run against each
// other (epochs themselves are local rebuild counters and legitimately
// differ across routers that converged along different event orders).
func (m *membership) digest() uint64 {
	m.mu.RLock()
	names := namesOf(m.members)
	m.mu.RUnlock()
	sort.Strings(names)
	h := uint64(14695981039346656037)
	for _, s := range names {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= uint64('\n')
		h *= 1099511628211
	}
	return h
}

// handleRegister serves POST /v1/register: a worker joining the fleet or
// renewing its lease (the two are the same call — a register of an
// existing member is a heartbeat). The granted lease is the requested one
// clamped to [minLease, maxLease], defaulting to Config.DefaultLease.
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	if httpapi.Inject(w, failpoint.RouterRegister) {
		return
	}
	var req httpapi.RegisterRequest
	if err := decodeBody(w, r, &req); err != nil {
		return
	}
	if req.LeaseMS < 0 {
		httpapi.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("lease_ms %d must not be negative", req.LeaseMS)})
		return
	}
	name, err := httpapi.BaseURL(req.URL)
	if err != nil {
		httpapi.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	b := newBackend(name)
	lease := clampLease(time.Duration(req.LeaseMS)*time.Millisecond, rt.cfg.DefaultLease)
	created, epoch := rt.mem.register(b, lease, time.Now())
	if created {
		rt.nJoins.Add(1)
	}
	httpapi.WriteJSON(w, http.StatusOK, httpapi.RegisterResponse{
		Epoch: epoch, LeaseMS: lease.Milliseconds(), Created: created,
	})
}

// handleDeregister serves POST /v1/deregister: a draining worker leaving
// the fleet explicitly, ahead of its lease. Idempotent — deregistering a
// name that is not a member reports removed=false with a 200.
func (rt *Router) handleDeregister(w http.ResponseWriter, r *http.Request) {
	if httpapi.Inject(w, failpoint.RouterRegister) {
		return
	}
	var req httpapi.DeregisterRequest
	if err := decodeBody(w, r, &req); err != nil {
		return
	}
	name, err := httpapi.BaseURL(req.URL)
	if err != nil {
		httpapi.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	removed, epoch := rt.mem.deregister(name, time.Now())
	if removed {
		rt.nLeaves.Add(1)
	}
	httpapi.WriteJSON(w, http.StatusOK, httpapi.DeregisterResponse{Epoch: epoch, Removed: removed})
}
