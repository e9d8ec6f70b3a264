package fleettest

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/httpapi"
	"repro/internal/router"
)

// The chaos scenarios (E24–E26). Each drives the same seeded request set
// twice on a transformer fleet — once fault-free, once under an armed
// failpoint plan while a director kills, restarts, joins and partitions
// nodes — and fails unless its invariants hold: zero lost requests,
// survivors bitwise identical to the fault-free run, bounded recovery, a
// faulted phase that ran on restored prefix-cache blocks, and every armed
// fault site fired. They never run in parallel: failpoint is
// process-global.

// requests is the size of the seeded request set every scenario drives
// twice. The pinned-seed fault schedules are tuned to it (and to Tokens per
// request).
const requests = 60

// atSeeds runs scenario once per pinned seed, as subtests seed=1..3.
func atSeeds(t *testing.T, scenario func(t *testing.T, seed uint64)) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { scenario(t, seed) })
	}
}

// scenarioFleet trains the transformer fleet of one scenario run.
func scenarioFleet(t *testing.T, seed uint64) *Fleet {
	t.Helper()
	f, err := NewTransformer(seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// reference is every scenario's phase 1: the fault-free run whose outputs
// later survivors must match bitwise. It must be clean and must reconcile.
func reference(t *testing.T, f *Fleet, doors []string) []Result {
	t.Helper()
	baseline, _ := f.Drive(doors, requests, 0, nil)
	for i, r := range baseline {
		if r.Outcome != OK {
			t.Fatalf("fault-free request %d failed (status %d): the baseline must be clean", i, r.Status)
		}
	}
	if err := f.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	return baseline
}

// driveUnder is the faulted phase of the scenarios with a schedule: the
// same request set, paced over span, while director acts on the live fleet.
func driveUnder(f *Fleet, doors []string, span time.Duration, director func() error) (run []Result, failovers int, err error) {
	dirErr := make(chan error, 1)
	go func() { dirErr <- director() }()
	run, failovers = f.Drive(doors, requests, span/requests, nil)
	return run, failovers, <-dirErr
}

// judge applies the invariants every scenario shares to a faulted run:
// every request reached exactly one terminal outcome, and every completion
// that survived is bitwise identical to the fault-free run's. With
// mustSucceed (the scenarios whose faults the tier must absorb) anything
// but a success counts as lost. hits is the number of prefix-cache hits the
// faulted phase saw: none means it never ran on restored blocks. fired is
// the fleet's fire count per site, and every site of the armed rules must
// have fired: a site where no fault fired tested nothing.
func judge(baseline, run []Result, mustSucceed bool, hits uint64, fired map[string]uint64, armed []failpoint.Rule) (Tally, error) {
	t := Compare(baseline, run)
	switch {
	case len(t.Lost) > 0:
		return t, fmt.Errorf("lost requests: %d ok + %d failed + %d severed != %d sent (no outcome for %v)",
			t.OK, t.Failed, t.Severed, len(baseline), t.Lost)
	case mustSucceed && t.OK != len(baseline):
		var bad []string
		for i, r := range run {
			if r.Outcome != OK {
				bad = append(bad, fmt.Sprintf("request %d: outcome %d, status %d", i, r.Outcome, r.Status))
			}
		}
		return t, fmt.Errorf("lost requests: %d ok + %d failed + %d severed != %d sent all-ok\n%s",
			t.OK, t.Failed, t.Severed, len(baseline), strings.Join(bad, "\n"))
	case len(t.Mismatched) > 0:
		i := t.Mismatched[0]
		return t, fmt.Errorf("%d surviving requests diverged from the fault-free run; first, request %d: %q != %q",
			len(t.Mismatched), i, run[i].Completion, baseline[i].Completion)
	case hits == 0:
		return t, fmt.Errorf("no prefix block was restored in the faulted phase; the run proved nothing")
	}
	return t, unfired(fired, armed)
}

// unfired reports the sites of armed at which no fault fired.
func unfired(fired map[string]uint64, armed []failpoint.Rule) error {
	var missing []string
	for _, r := range armed {
		if fired[r.Site] == 0 && !slices.Contains(missing, r.Site) {
			missing = append(missing, r.Site)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("armed sites never fired: %s (fired: %v); the plan proved nothing there", strings.Join(missing, ", "), fired)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// TestChaos is the serving-path chaos scenario (E24): two static workers
// behind one probing router, the request set driven fault-free and then
// under a plan spanning every serving layer (sampler panics, a whole-batch
// step fault, prefill errors, relay faults, dropped connections,
// starved deadlines). It asserts invariants rather than a golden fault log,
// because concurrency reorders which request absorbs which fault:
//
//  1. zero lost requests — every client call reaches exactly one terminal
//     outcome, and after the fleet drains each worker's counters reconcile;
//  2. the worker process survives injected panics — panics fired, were
//     charged to their victims, and a fresh request succeeds on every
//     worker afterwards;
//  3. blast-radius containment — every request that still succeeded under
//     chaos returns output bitwise identical to the fault-free run;
//  4. bounded recovery — probe faults eject the whole fleet, and the next
//     clean probe round readmits it within the recovery bound.
func TestChaos(t *testing.T) { atSeeds(t, chaosAt) }

func chaosAt(t *testing.T, seed uint64) {
	const (
		workers       = 2
		recoveryBound = 10 * time.Second
	)
	f := scenarioFleet(t, seed)
	var bases []string
	for i := 0; i < workers; i++ {
		w, err := f.AddWorker()
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, w.Base)
	}
	rts, err := f.StartRouters(1, router.Config{
		Backends: bases, MaxAttempts: 3, RetryBackoff: 5 * time.Millisecond,
		HealthInterval: 20 * time.Millisecond, FailThreshold: 2,
		RelayTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := rts[0]
	doors := []string{front.Base} // one door: a failure is the outcome

	baseline := reference(t, f, doors)

	// Probabilities are low enough that most requests survive (the bitwise
	// invariant needs survivors). serve/sample sees one hit per sampled
	// token, the most of any site, so its rule's probability is kept low.
	// Every 8th armed request carries a 1ms deadline budget, exercising the
	// 504 path.
	// The last two rules make sure their sites fire: the probabilistic
	// rules' streams first activate past the hits a run sees at some seeds
	// (relay at seed 1, prefill at seed 3), while every request that reaches
	// the router relays at least once and every request that reaches a
	// worker ingests at least one prompt chunk. They are appended, not
	// inserted, because a rule's stream is seeded by its index.
	hits := f.PrefixHits()
	rules := []failpoint.Rule{
		{Site: failpoint.ServeSample, Kind: failpoint.KindPanic, Prob: 0.02},
		{Site: failpoint.ServeStep, Kind: failpoint.KindError, After: 20, Count: 1},
		{Site: failpoint.ServePrefill, Kind: failpoint.KindError, Prob: 0.03},
		{Site: failpoint.HTTPGenerate, Kind: failpoint.KindDrop, Prob: 0.03},
		{Site: failpoint.RouterRelay, Kind: failpoint.KindError, Prob: 0.05},
		{Site: failpoint.ServePrefill, Kind: failpoint.KindError, After: 20, Count: 1},
		{Site: failpoint.RouterRelay, Kind: failpoint.KindError, After: 20, Count: 1},
	}
	if err := f.Arm(failpoint.Plan{Seed: seed, Rules: rules}); err != nil {
		t.Fatal(err)
	}
	run, _ := f.Drive(doors, requests, 0, func(i int, req *httpapi.GenRequest) {
		if i%8 == 5 {
			req.TimeoutMS = 1
		}
	})
	f.Disarm()
	fired, _ := f.Fired()
	if err := f.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	hits = f.PrefixHits() - hits
	tally, err := judge(baseline, run, false, hits, fired, rules) // invariants 1 and 3
	if err != nil {
		t.Fatal(err)
	}
	// Invariant 2: panics fired and every worker outlived them.
	var panics, failed uint64
	for _, w := range f.Workers {
		st := w.Stats()
		panics += st.Panics
		failed += st.Failed
	}
	if panics == 0 {
		t.Fatalf("no sampler panic fired at seed %d; the chaos run proved nothing", seed)
	}
	for _, w := range f.Workers {
		if r := f.Post(w.Base, Request(0)); r.Outcome != OK {
			t.Fatalf("worker %s did not survive the chaos phase: fresh request got %d", w.Base, r.Status)
		}
	}

	// Invariant 4: enough consecutive probe faults to eject every worker
	// (FailThreshold 2, one fault per worker per 20ms probe round), then how
	// long the fleet takes to go all-healthy once the faults run out.
	healthy := func() bool { return Converged(workers, front) }
	probeRules := []failpoint.Rule{
		{Site: failpoint.RouterProbe, Kind: failpoint.KindError, Count: 2 * workers},
	}
	if err := f.Arm(failpoint.Plan{Seed: seed, Rules: probeRules}); err != nil {
		t.Fatal(err)
	}
	ejectStart := time.Now()
	if err := WaitUntil("probe faults ejecting a worker", recoveryBound, func() bool { return !healthy() }); err != nil {
		t.Fatal(err)
	}
	ejected := time.Since(ejectStart)
	recoverStart := time.Now()
	if err := WaitUntil("the ejected fleet recovering", recoveryBound, healthy); err != nil {
		t.Fatal(err)
	}
	recovery := time.Since(recoverStart)
	f.Disarm()
	fired, total := f.Fired()
	if err := unfired(fired, probeRules); err != nil {
		t.Fatal(err)
	}
	if r := f.Post(front.Base, Request(0)); r.Outcome != OK {
		t.Fatalf("recovered fleet rejected a clean request: status %d", r.Status)
	}

	t.Logf("chaos: %d requests → %d ok, %d failed, %d severed; 0 lost, 0 bitwise mismatches; prefix_hits %d; %d panics survived, worker_failed %d",
		requests, tally.OK, tally.Failed, tally.Severed, hits, panics, failed)
	t.Logf("faults: %d fired %v", total, fired)
	t.Logf("recovery: ejection_ms %.1f, recovery_ms %.1f", ms(ejected), ms(recovery))
}

// TestChurn is the membership-churn scenario (E25): a router that starts
// with an EMPTY fleet — every worker joins via lease-based registration —
// the request set driven over the stable fleet and then while a director
// executes a churn schedule against the live fleet (ungraceful kill →
// lease-expiry ejection → restart and re-register on the same URL → a cold
// worker joining on a new URL → a graceful leave through /v1/deregister),
// with failpoints armed on the register/heartbeat control plane the whole
// while. Invariants:
//
//  1. zero lost requests — every churn-phase request reaches a terminal
//     outcome and succeeds (the router retries across the kill), and
//     every worker's counters reconcile after the run;
//  2. survivors bitwise intact — all churn-phase completions are
//     identical to the churn-free run, regardless of where they landed;
//  3. minimal remap — a session changes owner only if its old owner left
//     the fleet or its new owner is the cold joiner; everyone else's
//     placement survives two ejections and two membership epochs;
//  4. bounded readmission — the killed worker, once restarted, is healthy
//     and receiving session traffic again within the rejoin bound;
//  5. the membership ledger adds up — final epoch, join/leave/expiry
//     counters, and member count match the schedule exactly.
func TestChurn(t *testing.T) { atSeeds(t, churnAt) }

func churnAt(t *testing.T, seed uint64) {
	const (
		baseWorkers = 3
		rejoinBound = 5 * time.Second
		driveSpan   = 3 * time.Second // churn-phase pacing window
	)
	f := scenarioFleet(t, seed)

	// The router starts with no members at all: the whole fleet arrives
	// through /v1/register. FailThreshold is set high so the kill below is
	// detected by lease expiry (the path under test), not probe ejection.
	// The dead worker's ring slot survives until it restarts and renews:
	// the router forgets a member only after ten lapsed TTLs (2.5 s), and
	// the restart follows the lapse by tens of milliseconds.
	rts, err := f.StartRouters(1, router.Config{
		MaxAttempts: 4, RetryBackoff: 2 * time.Millisecond,
		HealthInterval: 20 * time.Millisecond, FailThreshold: 50,
		RelayTimeout: 5 * time.Second,
		DefaultLease: Lease,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := rts[0]
	doors := []string{rt.Base}
	settled := func() bool { return Converged(baseWorkers, rt) }

	// Phase 0 — the fleet assembles itself; each join is one epoch.
	for i := 0; i < baseWorkers; i++ {
		if _, err := f.AddWorker(rt); err != nil {
			t.Fatal(err)
		}
	}
	if err := WaitUntil("initial fleet registration", SettleBound, settled); err != nil {
		t.Fatal(err)
	}
	if e := rt.Stats().Epoch; e != baseWorkers {
		t.Fatalf("membership epoch after %d joins is %d, want %d", baseWorkers, e, baseWorkers)
	}

	// ownerOf locates one session's worker empirically: issue a keyed
	// request through the router and see whose request counter moved.
	// Only valid while no other traffic is running.
	ownerOf := func(session string) *Worker {
		t.Helper()
		before := make([]uint64, len(f.Workers))
		for i, w := range f.Workers {
			before[i] = w.Stats().Requests
		}
		req := Request(0)
		req.Tokens, req.Session = 2, session
		if r := f.Post(rt.Base, req); r.Outcome != OK {
			t.Fatalf("session-probe %q failed: status %d", session, r.Status)
		}
		for i, w := range f.Workers {
			if w.Stats().Requests > before[i] {
				return w
			}
		}
		t.Fatalf("session-probe %q landed on no live worker", session)
		return nil
	}

	// Phase 1 — churn-free reference run: every completion, and the
	// session→worker placement to diff against after the churn.
	baseline := reference(t, f, doors)
	ownersBefore := map[string]*Worker{}
	for i := 0; i < 7; i++ {
		session := fmt.Sprintf("sess-%d", i)
		ownersBefore[session] = ownerOf(session)
	}
	// The kill target is a worker that owns a driven session (the
	// rejoin-to-traffic measurement needs one pinned to it); the graceful
	// leaver is another worker.
	const victimSession = "sess-0"
	victim := ownersBefore[victimSession]
	leaver := f.Workers[0]
	if leaver == victim {
		leaver = f.Workers[1]
	}

	// Phase 2 — the same request set, paced over ~3s, while the director
	// executes the churn schedule and failpoints attack the register/
	// heartbeat control plane.
	hits := f.PrefixHits()
	rules := []failpoint.Rule{
		{Site: failpoint.JoinHeartbeat, Kind: failpoint.KindError, Prob: 0.15},
		{Site: failpoint.RouterRegister, Kind: failpoint.KindLatency, Prob: 0.2, Sleep: 5 * time.Millisecond},
		{Site: failpoint.RouterRegister, Kind: failpoint.KindError, Prob: 0.1},
	}
	if err := f.Arm(failpoint.Plan{Seed: seed, Rules: rules}); err != nil {
		t.Fatal(err)
	}
	var (
		expiryEject   time.Duration // kill → router marks the worker unhealthy
		rejoinHealthy time.Duration // restart → router marks it healthy
		rejoinTraffic time.Duration // restart → its sessions land on it again
		cold          *Worker
	)
	run, _, err := driveUnder(f, doors, driveSpan, func() error {
		// Let the paced drive establish traffic first.
		time.Sleep(400 * time.Millisecond)

		// Ungraceful kill: no deregister — only the lease can tell.
		killedAt := time.Now()
		victim.Kill()
		if err := WaitUntil("lease-expiry ejection of the killed worker", rejoinBound, func() bool {
			return !rt.Healthy(victim.Base)
		}); err != nil {
			return err
		}
		expiryEject = time.Since(killedAt)

		// Restart on the same address: re-registration renews the existing
		// (lapsed) membership, so no epoch changes and the worker's ring
		// arcs — its sessions — come straight back.
		restartAt := time.Now()
		if err := victim.Restart(); err != nil {
			return fmt.Errorf("restarting killed worker: %w", err)
		}
		if err := WaitUntil("restarted worker turning healthy", rejoinBound, func() bool {
			return rt.Healthy(victim.Base)
		}); err != nil {
			return err
		}
		rejoinHealthy = time.Since(restartAt)
		// Traffic bound: its old session must route back to it.
		probe := Request(0)
		probe.Tokens, probe.Session = 2, victimSession
		if err := WaitUntil("restarted worker receiving its session's traffic", rejoinBound, func() bool {
			f.Post(rt.Base, probe)
			return victim.Stats().Requests > 0
		}); err != nil {
			return err
		}
		rejoinTraffic = time.Since(restartAt)

		// Cold join: a brand-new worker on a new URL. One epoch.
		w, err := f.AddWorker(rt)
		if err != nil {
			return fmt.Errorf("cold join: %w", err)
		}
		cold = w
		if err := WaitUntil("cold joiner turning healthy", rejoinBound, func() bool {
			return rt.Healthy(cold.Base)
		}); err != nil {
			return err
		}

		// Graceful leave: deregister explicitly (retrying through the
		// injected control-plane faults); the worker itself keeps serving
		// whatever is still in flight on it.
		var leaveErr error
		for attempt := 0; attempt < 10; attempt++ {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			leaveErr = leaver.Leave(ctx)
			cancel()
			if leaveErr == nil {
				return nil
			}
		}
		return fmt.Errorf("graceful leave never succeeded: %w", leaveErr)
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Disarm()
	fired, total := f.Fired()
	hits = f.PrefixHits() - hits

	// Invariants 1 and 2: under churn every single request must still
	// succeed (kills are retried, leaves are drained), bitwise intact, and
	// the plan must actually have attacked the membership path.
	tally, err := judge(baseline, run, true, hits, fired, rules)
	if err != nil {
		t.Fatal(err)
	}

	// Settle: the fleet is the two stayers (one reborn) and the cold joiner
	// — all healthy — and every worker (the leaver included) reconciles.
	if err := WaitUntil("post-churn fleet settling", SettleBound, settled); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitIdle(); err != nil {
		t.Fatal(err)
	}

	// Invariant 5: the membership ledger matches the schedule — 3 initial
	// joins + 1 cold join, 1 graceful leave, the restart NOT a join (it
	// renewed its lapsed membership), ≥1 lease expiry, nothing forgotten,
	// and exactly 5 ring rebuilds.
	st := rt.Stats()
	if st.Joins != baseWorkers+1 || st.Leaves != 1 || st.Forgotten != 0 {
		t.Fatalf("membership ledger off: joins=%d leaves=%d forgotten=%d, want %d/1/0",
			st.Joins, st.Leaves, st.Forgotten, baseWorkers+1)
	}
	if st.LeaseExpiries < 1 {
		t.Fatal("the kill never surfaced as a lease expiry")
	}
	if want := uint64(baseWorkers + 2); st.Epoch != want {
		t.Fatalf("final epoch %d, want %d (3 joins + cold join + leave)", st.Epoch, want)
	}

	// Invariant 3: minimal remap — re-probe every recorded session; an
	// owner change is legal only when the old owner left the fleet or the
	// new owner is the cold joiner.
	var moved, unexplained int
	for session, oldOwner := range ownersBefore {
		newOwner := ownerOf(session)
		if newOwner == oldOwner {
			continue
		}
		moved++
		if oldOwner != leaver && newOwner != cold {
			unexplained++
			t.Logf("unexplained remap of session %q: %s -> %s", session, oldOwner.Base, newOwner.Base)
		}
	}
	if unexplained > 0 {
		t.Fatalf("%d sessions remapped without a membership reason", unexplained)
	}

	t.Logf("churn: %d requests → %d ok, %d failed, %d severed; 0 lost, 0 bitwise mismatches; prefix_hits %d",
		requests, tally.OK, tally.Failed, tally.Severed, hits)
	t.Logf("faults: %d fired %v", total, fired)
	t.Logf("membership: epoch %d, joins %d, leaves %d, lease_expiries %d, forgotten %d; %d/%d sessions moved, all explained",
		st.Epoch, st.Joins, st.Leaves, st.LeaseExpiries, st.Forgotten, moved, len(ownersBefore))
	t.Logf("timings: expiry_eject_ms %.1f, rejoin_healthy_ms %.1f, rejoin_traffic_ms %.1f",
		ms(expiryEject), ms(rejoinHealthy), ms(rejoinTraffic))
}

// TestRouterHA is the router-high-availability scenario (E26): TWO peered
// routers over one worker fleet — every worker registers with and
// heartbeats both — the request set driven through a failover client that
// retries the other router when one refuses or vanishes, once with both
// routers stable and once while a director kills router B mid-load,
// restarts it on the same address, gossips a worker that only B knows
// first-hand across to A, and partitions the peer-sync channel (failpoints
// on the send and receive sites). Invariants:
//
//  1. zero lost requests — every request reaches a terminal outcome and
//     succeeds: one router's death only costs a client-side failover;
//  2. survivors bitwise intact — all completions identical to the stable
//     run, wherever they were routed;
//  3. bounded recovery — the restarted router passes its /healthz
//     readiness gate (initial peer sync + a healthy backend) and serves
//     traffic again within the recovery bound, having relearned the whole
//     fleet from worker heartbeats and one anti-entropy exchange;
//  4. peer sync is load-bearing — a worker registered ONLY at B appears
//     at A and its lease stays fresh there through gossiped renewals;
//     partitioning the sync channel makes A's copy lapse (honest
//     divergence), and healing it revives the lease without any
//     re-register;
//  5. identical ledgers after convergence — both routers end with the
//     same member set, the same leased flags, and the same ring digest
//     (epochs are local rebuild counters and legitimately differ).
func TestRouterHA(t *testing.T) { atSeeds(t, routerHAAt) }

func routerHAAt(t *testing.T, seed uint64) {
	const (
		baseWorkers  = 3
		recoverBound = 5 * time.Second
		driveSpan    = 4 * time.Second // chaos-phase pacing window
	)
	f := scenarioFleet(t, seed)

	// FailThreshold is high so worker liveness is governed by leases (the
	// replicated state under test). Nothing leaves the ring mid-run: a
	// router forgets only a member that has been lapsed ten TTLs AND fails
	// its probes, and every worker here stays up and answers probes.
	rts, err := f.StartRouters(2, router.Config{
		MaxAttempts: 4, RetryBackoff: 2 * time.Millisecond,
		HealthInterval: 20 * time.Millisecond, FailThreshold: 50,
		RelayTimeout: 5 * time.Second,
		DefaultLease: Lease,
		SyncInterval: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rtA, rtB := rts[0], rts[1]
	doors := []string{rtA.Base, rtB.Base} // two doors: the client fails over
	converged := func(members int) func() bool {
		return func() bool { return Converged(members, rtA, rtB) }
	}
	// leaseAtA reads router A's view of one member's lease: leased, and the
	// remaining milliseconds (negative once lapsed).
	leaseAtA := func(base string) (leased bool, leaseMS int64) {
		for _, b := range rtA.Stats().Backends {
			if b.Name == base && b.Leased {
				return true, b.LeaseMS
			}
		}
		return false, 0
	}

	// Phase 0 — the fleet assembles: three workers join BOTH routers; both
	// converge on the same three-member ring.
	for i := 0; i < baseWorkers; i++ {
		if _, err := f.AddWorker(rtA, rtB); err != nil {
			t.Fatal(err)
		}
	}
	if err := WaitUntil("initial fleet registration at both routers", SettleBound, converged(baseWorkers)); err != nil {
		t.Fatal(err)
	}

	baseline := reference(t, f, doors)

	// Phase 2 — the same request set, paced across the director's schedule:
	// router kill/restart, gossip-only membership, peer partition and heal.
	// The standing plan keeps mild latency/error pressure on the sync
	// channel the whole phase; the partition window rearms it to sever the
	// channel completely. A partitioned sender fails before its exchange
	// leaves, so the receive side is failed by the mild plan's last rule:
	// each router receives an exchange every 40ms while both are up, so
	// the fifth arrives well before the partition.
	mildRules := []failpoint.Rule{
		{Site: failpoint.RouterPeerSend, Kind: failpoint.KindLatency, Prob: 0.3, Sleep: 2 * time.Millisecond},
		{Site: failpoint.RouterPeerSend, Kind: failpoint.KindError, Prob: 0.1},
		{Site: failpoint.JoinHeartbeat, Kind: failpoint.KindError, Prob: 0.1},
		{Site: failpoint.RouterPeerRecv, Kind: failpoint.KindError, After: 4, Count: 1},
	}
	partitionRules := []failpoint.Rule{
		{Site: failpoint.RouterPeerSend, Kind: failpoint.KindError},
		{Site: failpoint.RouterPeerRecv, Kind: failpoint.KindError},
		mildRules[2],
	}
	hits := f.PrefixHits()
	if err := f.Arm(failpoint.Plan{Seed: seed, Rules: mildRules}); err != nil {
		t.Fatal(err)
	}
	var (
		recoverReady   time.Duration // router restart -> /healthz 200
		recoverTraffic time.Duration // router restart -> a request served via it
		gossipJoin     time.Duration // B-only register -> leased at A
		divergeLapse   time.Duration // partition armed -> A's copy lapsed
		healRevive     time.Duration // partition healed -> A's copy fresh again
	)
	run, failovers, err := driveUnder(f, doors, driveSpan, func() error {
		// Let the paced drive establish traffic through both routers.
		time.Sleep(400 * time.Millisecond)

		// Ungraceful router kill: no drain, no deregistration relay.
		// Clients fail over; workers keep heartbeating the survivor.
		rtB.Kill()
		time.Sleep(300 * time.Millisecond)

		// Restart on the same address: B comes back empty, gates readiness
		// on its initial anti-entropy round, and relearns the fleet from A
		// plus the workers' own heartbeats.
		restartAt := time.Now()
		if err := rtB.Restart(); err != nil {
			return fmt.Errorf("restarting router B: %w", err)
		}
		if err := WaitUntil("restarted router readiness", recoverBound, func() bool {
			resp, err := f.Client.Get(rtB.Base + "/healthz")
			if err != nil {
				return false
			}
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		}); err != nil {
			return err
		}
		recoverReady = time.Since(restartAt)
		probe := Request(0)
		probe.Tokens, probe.Session = 2, ""
		if err := WaitUntil("restarted router serving traffic", recoverBound, func() bool {
			return f.Post(rtB.Base, probe).Outcome == OK
		}); err != nil {
			return err
		}
		recoverTraffic = time.Since(restartAt)
		if err := WaitUntil("restarted router reconverging", recoverBound, converged(baseWorkers)); err != nil {
			return err
		}

		// Gossip-only membership: a 4th worker registers ONLY at B; A may
		// learn it exclusively through peer sync, and must then keep its
		// lease fresh on gossiped renewals alone.
		joinAt := time.Now()
		w4, err := f.AddWorker(rtB)
		if err != nil {
			return fmt.Errorf("gossip-only join: %w", err)
		}
		if err := WaitUntil("gossiped member appearing at router A", recoverBound, func() bool {
			leased, leaseMS := leaseAtA(w4.Base)
			return leased && leaseMS > 0
		}); err != nil {
			return err
		}
		gossipJoin = time.Since(joinAt)

		// Partition the peer-sync channel completely. A's only source of
		// w4 renewals is gone: its copy of the lease must lapse — honest
		// divergence, not a silent stale member.
		if err := f.Arm(failpoint.Plan{Seed: seed + 1, Rules: partitionRules}); err != nil {
			return err
		}
		partitionAt := time.Now()
		if err := WaitUntil("partitioned router A's gossip lease lapsing", recoverBound, func() bool {
			leased, leaseMS := leaseAtA(w4.Base)
			return leased && leaseMS < 0
		}); err != nil {
			return err
		}
		divergeLapse = time.Since(partitionAt)

		// Heal: back to the mild plan. Anti-entropy resumes and A's copy of
		// w4 must come back to life without any re-register.
		if err := f.Arm(failpoint.Plan{Seed: seed + 2, Rules: mildRules}); err != nil {
			return err
		}
		healAt := time.Now()
		if err := WaitUntil("healed gossip reviving the lease at A", recoverBound, func() bool {
			leased, leaseMS := leaseAtA(w4.Base)
			return leased && leaseMS > 0
		}); err != nil {
			return err
		}
		healRevive = time.Since(healAt)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Disarm()
	fired, total := f.Fired()
	hits = f.PrefixHits() - hits

	// Invariants 1 and 2: a router death is a failover, never a failure the
	// client sees, every completion is bitwise intact, and every site of
	// both plans fired. Invariant 3 was enforced by the director's bounded
	// waits.
	tally, err := judge(baseline, run, true, hits, fired, slices.Concat(mildRules, partitionRules))
	if err != nil {
		t.Fatal(err)
	}
	// The kill must actually have cost somebody a failover.
	if failovers == 0 {
		t.Fatal("no request ever failed over: the router kill was invisible and proved nothing")
	}

	// Invariant 5: identical ledgers after convergence — same members, same
	// leased flags, same ring digest, both ready.
	if err := WaitUntil("final two-router convergence", SettleBound, converged(baseWorkers+1)); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	stA, stB := rtA.Stats(), rtB.Stats()
	ledger := func(st router.Stats) string {
		rows := make([]string, 0, len(st.Backends))
		for _, b := range st.Backends {
			rows = append(rows, fmt.Sprintf("%s leased=%v", b.Name, b.Leased))
		}
		sort.Strings(rows)
		return strings.Join(rows, "\n") + "\ndigest=" + st.RingDigest
	}
	if la, lb := ledger(stA), ledger(stB); la != lb {
		t.Fatalf("membership ledgers diverge after convergence:\nrouter A:\n%s\nrouter B:\n%s", la, lb)
	}

	t.Logf("router-ha: %d requests → %d ok, %d failed, %d severed; 0 lost, 0 bitwise mismatches; failovers %d; prefix_hits %d",
		requests, tally.OK, tally.Failed, tally.Severed, failovers, hits)
	t.Logf("faults: %d fired %v", total, fired)
	t.Logf("ledgers identical: %d members, digest %s; syncs_in A %d, B %d", stA.Members, stA.RingDigest, stA.SyncsIn, stB.SyncsIn)
	t.Logf("timings: recover_ready_ms %.1f, recover_traffic_ms %.1f, gossip_join_ms %.1f, diverge_lapse_ms %.1f, heal_revive_ms %.1f",
		ms(recoverReady), ms(recoverTraffic), ms(gossipJoin), ms(divergeLapse), ms(healRevive))
}

// TestJudge: each violation of the shared invariants is an error, and a
// clean run is none.
func TestJudge(t *testing.T) {
	baseline := []Result{
		{Outcome: OK, Completion: "a"}, {Outcome: OK, Completion: "b"}, {Outcome: OK, Completion: "c"},
	}
	armed := []failpoint.Rule{
		{Site: failpoint.ServeSample, Kind: failpoint.KindPanic, Prob: 0.05},
		{Site: failpoint.RouterRelay, Kind: failpoint.KindError, Prob: 0.05},
	}
	allFired := map[string]uint64{failpoint.ServeSample: 2, failpoint.RouterRelay: 1}
	clean := []Result{{Outcome: OK, Completion: "a"}, {Outcome: OK, Completion: "b"}, {Outcome: OK, Completion: "c"}}
	withFailure := []Result{{Outcome: OK, Completion: "a"}, {Outcome: Failed, Status: 500}, {Outcome: OK, Completion: "c"}}
	for _, tc := range []struct {
		name        string
		run         []Result
		mustSucceed bool
		hits        uint64
		fired       map[string]uint64
		wantErr     string
	}{
		{name: "clean", run: clean, mustSucceed: true, hits: 1, fired: allFired},
		{name: "failure allowed", run: withFailure, hits: 1, fired: allFired},
		{name: "lost index", run: []Result{clean[0], {}, clean[2]}, hits: 1, fired: allFired, wantErr: "no outcome for [1]"},
		{name: "missing index", run: clean[:2], hits: 1, fired: allFired, wantErr: "no outcome for [2]"},
		{name: "failure under mustSucceed", run: withFailure, mustSucceed: true, hits: 1, fired: allFired, wantErr: "request 1: outcome 2, status 500"},
		{name: "mutated completion", run: []Result{clean[0], {Outcome: OK, Completion: "B"}, clean[2]}, hits: 1, fired: allFired, wantErr: "request 1"},
		{name: "no prefix hits", run: clean, hits: 0, fired: allFired, wantErr: "no prefix block"},
		{name: "armed site never fired", run: clean, hits: 1, fired: map[string]uint64{failpoint.ServeSample: 3}, wantErr: "never fired: " + failpoint.RouterRelay},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := judge(baseline, tc.run, tc.mustSucceed, tc.hits, tc.fired, armed)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("clean run judged a violation: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatal("violation not reported")
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not name %q", err, tc.wantErr)
			}
		})
	}
}
