package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/failpoint"
	"repro/internal/fleettest"
	"repro/internal/router"
)

// runChurn is the membership-churn scenario behind llm-bench -chaos -churn
// (E25): a router that starts with an EMPTY fleet — every worker joins via
// lease-based registration — the request set driven over the stable fleet
// and then while a director executes a churn schedule against the live
// fleet (ungraceful kill → lease-expiry ejection → restart and re-register
// on the same URL → a cold worker joining on a new URL → a graceful leave
// through /v1/deregister), with failpoints armed on the register/heartbeat
// control plane the whole while. Invariants:
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
func runChurn(dir string, seed uint64) error {
	const (
		baseWorkers = 3
		rejoinBound = 5 * time.Second
		driveSpan   = 3 * time.Second // churn-phase pacing window
	)
	log.Print("training the churn-fleet transformer")
	f, err := fleettest.NewTransformer(seed)
	if err != nil {
		return err
	}
	defer f.Close()

	// The router starts with no members at all: the whole fleet arrives
	// through /v1/register. FailThreshold is set high so the kill below is
	// detected by lease expiry (the path under test), not probe ejection;
	// ForgetAfter is long so the dead worker's ring slot survives until it
	// restarts and renews.
	rts, err := f.StartRouters(1, router.Config{
		MaxAttempts: 4, RetryBackoff: 2 * time.Millisecond,
		HealthInterval: 20 * time.Millisecond, FailThreshold: 50,
		RelayTimeout: 5 * time.Second,
		DefaultLease: fleettest.Lease, ForgetAfter: 30 * time.Second,
	})
	if err != nil {
		return err
	}
	rt := rts[0]
	doors := []string{rt.Base}
	settled := func() bool { return fleettest.Converged(baseWorkers, rt) }

	// Phase 0 — the fleet assembles itself; each join is one epoch.
	log.Print("phase 0: 3 workers joining the empty router")
	for i := 0; i < baseWorkers; i++ {
		if _, err := f.AddWorker(rt); err != nil {
			return err
		}
	}
	if err := fleettest.WaitUntil("initial fleet registration", fleettest.SettleBound, settled); err != nil {
		return err
	}
	if e := rt.Stats().Epoch; e != baseWorkers {
		return fmt.Errorf("membership epoch after %d joins is %d, want %d", baseWorkers, e, baseWorkers)
	}

	// ownerOf locates one session's worker empirically: issue a keyed
	// request through the router and see whose request counter moved.
	// Only valid while no other traffic is running.
	ownerOf := func(session string) (*fleettest.Worker, error) {
		before := make([]uint64, len(f.Workers))
		for i, w := range f.Workers {
			before[i] = w.Stats().Requests
		}
		req := fleettest.Request(0)
		req.Tokens, req.Session = 2, session
		if r := f.Post(rt.Base, req); r.Outcome != fleettest.OK {
			return nil, fmt.Errorf("session-probe %q failed: status %d", session, r.Status)
		}
		for i, w := range f.Workers {
			if w.Stats().Requests > before[i] {
				return w, nil
			}
		}
		return nil, fmt.Errorf("session-probe %q landed on no live worker", session)
	}

	// Phase 1 — churn-free reference run: every completion, and the
	// session→worker placement to diff against after the churn.
	log.Printf("phase 1: churn-free reference run (%d requests)", requests)
	baseline, err := reference(f, doors)
	if err != nil {
		return err
	}
	ownersBefore := map[string]*fleettest.Worker{}
	for i := 0; i < 7; i++ {
		session := fmt.Sprintf("sess-%d", i)
		if ownersBefore[session], err = ownerOf(session); err != nil {
			return err
		}
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
	log.Print("phase 2: churn run (kill, lease-expiry, restart, cold join, graceful leave)")
	hits := f.PrefixHits()
	if err := f.Arm(failpoint.Plan{Seed: seed, Rules: []failpoint.Rule{
		{Site: failpoint.JoinHeartbeat, Kind: failpoint.KindError, Prob: 0.15},
		{Site: failpoint.RouterRegister, Kind: failpoint.KindLatency, Prob: 0.2, Sleep: 5 * time.Millisecond},
		{Site: failpoint.RouterRegister, Kind: failpoint.KindError, Prob: 0.1},
	}}); err != nil {
		return err
	}
	var (
		expiryEject   time.Duration // kill → router marks the worker unhealthy
		rejoinHealthy time.Duration // restart → router marks it healthy
		rejoinTraffic time.Duration // restart → its sessions land on it again
		cold          *fleettest.Worker
	)
	run, _, err := driveUnder(f, doors, driveSpan, func() error {
		// Let the paced drive establish traffic first.
		time.Sleep(400 * time.Millisecond)

		// Ungraceful kill: no deregister — only the lease can tell.
		log.Printf("director: killing %s (no deregister)", victim.Base)
		killedAt := time.Now()
		victim.Kill()
		if err := fleettest.WaitUntil("lease-expiry ejection of the killed worker", rejoinBound, func() bool {
			return !rt.Healthy(victim.Base)
		}); err != nil {
			return err
		}
		expiryEject = time.Since(killedAt)

		// Restart on the same address: re-registration renews the existing
		// (lapsed) membership, so no epoch changes and the worker's ring
		// arcs — its sessions — come straight back.
		log.Printf("director: restarting %s on its old address", victim.Base)
		restartAt := time.Now()
		if err := victim.Restart(); err != nil {
			return fmt.Errorf("restarting killed worker: %w", err)
		}
		if err := fleettest.WaitUntil("restarted worker turning healthy", rejoinBound, func() bool {
			return rt.Healthy(victim.Base)
		}); err != nil {
			return err
		}
		rejoinHealthy = time.Since(restartAt)
		// Traffic bound: its old session must route back to it.
		probe := fleettest.Request(0)
		probe.Tokens, probe.Session = 2, victimSession
		if err := fleettest.WaitUntil("restarted worker receiving its session's traffic", rejoinBound, func() bool {
			f.Post(rt.Base, probe)
			return victim.Stats().Requests > 0
		}); err != nil {
			return err
		}
		rejoinTraffic = time.Since(restartAt)

		// Cold join: a brand-new worker on a new URL. One epoch.
		log.Print("director: cold-joining a 4th worker")
		w, err := f.AddWorker(rt)
		if err != nil {
			return fmt.Errorf("cold join: %w", err)
		}
		cold = w
		if err := fleettest.WaitUntil("cold joiner turning healthy", rejoinBound, func() bool {
			return rt.Healthy(cold.Base)
		}); err != nil {
			return err
		}

		// Graceful leave: deregister explicitly (retrying through the
		// injected control-plane faults); the worker itself keeps serving
		// whatever is still in flight on it.
		log.Printf("director: graceful leave of %s", leaver.Base)
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
		return err
	}
	f.Disarm()
	fired, totalFired := f.Fired()
	hits = f.PrefixHits() - hits

	// Invariants 1 and 2: under churn every single request must still
	// succeed (kills are retried, leaves are drained), bitwise intact.
	tally, err := judge(baseline, run, true, hits)
	if err != nil {
		return err
	}
	// The chaos plan must actually have attacked the membership path.
	if totalFired == 0 {
		return fmt.Errorf("no membership fault fired at seed %d; the churn run proved nothing", seed)
	}

	// Settle: the fleet is the two stayers (one reborn) and the cold joiner
	// — all healthy — and every worker (the leaver included) reconciles.
	if err := fleettest.WaitUntil("post-churn fleet settling", fleettest.SettleBound, settled); err != nil {
		return err
	}
	if err := f.WaitIdle(); err != nil {
		return err
	}

	// Invariant 5: the membership ledger matches the schedule — 3 initial
	// joins + 1 cold join, 1 graceful leave, the restart NOT a join (it
	// renewed its lapsed membership), ≥1 lease expiry, nothing forgotten,
	// and exactly 5 ring rebuilds.
	st := rt.Stats()
	if st.Joins != baseWorkers+1 || st.Leaves != 1 || st.Forgotten != 0 {
		return fmt.Errorf("membership ledger off: joins=%d leaves=%d forgotten=%d, want %d/1/0",
			st.Joins, st.Leaves, st.Forgotten, baseWorkers+1)
	}
	if st.LeaseExpiries < 1 {
		return fmt.Errorf("the kill never surfaced as a lease expiry")
	}
	if want := uint64(baseWorkers + 2); st.Epoch != want {
		return fmt.Errorf("final epoch %d, want %d (3 joins + cold join + leave)", st.Epoch, want)
	}

	// Invariant 3: minimal remap — re-probe every recorded session; an
	// owner change is legal only when the old owner left the fleet or the
	// new owner is the cold joiner.
	var moved, unexplained int
	for session, oldOwner := range ownersBefore {
		newOwner, err := ownerOf(session)
		if err != nil {
			return err
		}
		if newOwner == oldOwner {
			continue
		}
		moved++
		if oldOwner != leaver && newOwner != cold {
			unexplained++
			log.Printf("UNEXPLAINED REMAP session %q: %s -> %s", session, oldOwner.Base, newOwner.Base)
		}
	}
	if unexplained > 0 {
		return fmt.Errorf("%d sessions remapped without a membership reason", unexplained)
	}

	err = writeRecord(dir, "chaos_churn", map[string]int{"workers": baseWorkers}, map[string]float64{
		"baseline_ok":        float64(len(baseline)),
		"churn_ok":           float64(tally.OK),
		"churn_failed":       float64(tally.Failed),
		"churn_severed":      float64(tally.Severed),
		"bitwise_mismatches": float64(len(tally.Mismatched)),
		"prefix_hits":        float64(hits),
		"epoch_final":        float64(st.Epoch),
		"joins":              float64(st.Joins),
		"leaves":             float64(st.Leaves),
		"lease_expiries":     float64(st.LeaseExpiries),
		"forgotten":          float64(st.Forgotten),
		"expiry_eject_ms":    ms(expiryEject),
		"rejoin_healthy_ms":  ms(rejoinHealthy),
		"rejoin_traffic_ms":  ms(rejoinTraffic),
		"sessions_tracked":   float64(len(ownersBefore)),
		"sessions_moved":     float64(moved),
		"faults_fired":       float64(totalFired),
	}, fired)
	if err != nil {
		return err
	}
	fmt.Printf("churn: %d requests → %d ok, 0 lost, 0 bitwise mismatches across kill/restart/join/leave; %d control-plane faults fired, prefix_hits %d\n",
		requests, tally.OK, totalFired, hits)
	fmt.Printf("membership: epoch %d (joins %d, leaves %d, expiries %d); eject %.0fms after kill, rejoin healthy %.0fms, traffic %.0fms; %d/%d sessions moved, all explained\n",
		st.Epoch, st.Joins, st.Leaves, st.LeaseExpiries,
		ms(expiryEject), ms(rejoinHealthy), ms(rejoinTraffic), moved, len(ownersBefore))
	return nil
}
