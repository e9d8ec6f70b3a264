package main

import (
	"fmt"
	"log"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/failpoint"
	"repro/internal/fleettest"
	"repro/internal/router"
)

// runRouterHA is the router-high-availability scenario behind
// llm-bench -chaos -router-ha (E26): TWO peered routers over one worker
// fleet — every worker registers with and heartbeats both — the request set
// driven through a failover client that retries the other router when one
// refuses or vanishes, once with both routers stable and once while a
// director kills router B mid-load, restarts it on the same address,
// gossips a worker that only B knows first-hand across to A, and partitions
// the peer-sync channel (failpoints on the send and receive sites).
// Invariants:
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
func runRouterHA(dir string, seed uint64) error {
	const (
		baseWorkers  = 3
		recoverBound = 5 * time.Second
		driveSpan    = 4 * time.Second // chaos-phase pacing window
	)
	log.Print("training the router-HA fleet transformer")
	f, err := fleettest.NewTransformer(seed)
	if err != nil {
		return err
	}
	defer f.Close()

	// FailThreshold is high so worker liveness is governed by leases (the
	// replicated state under test); ForgetAfter is long so nothing silently
	// leaves the ring mid-run.
	rts, err := f.StartRouters(2, router.Config{
		MaxAttempts: 4, RetryBackoff: 2 * time.Millisecond,
		HealthInterval: 20 * time.Millisecond, FailThreshold: 50,
		RelayTimeout: 5 * time.Second,
		DefaultLease: fleettest.Lease, ForgetAfter: 30 * time.Second,
		SyncInterval: 40 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	rtA, rtB := rts[0], rts[1]
	doors := []string{rtA.Base, rtB.Base} // two doors: the client fails over
	converged := func(members int) func() bool {
		return func() bool { return fleettest.Converged(members, rtA, rtB) }
	}
	// leaseAt reads router A's view of one member's lease: leased, and the
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
	log.Print("phase 0: 3 workers joining both routers")
	for i := 0; i < baseWorkers; i++ {
		if _, err := f.AddWorker(rtA, rtB); err != nil {
			return err
		}
	}
	if err := fleettest.WaitUntil("initial fleet registration at both routers", fleettest.SettleBound, converged(baseWorkers)); err != nil {
		return err
	}

	log.Printf("phase 1: stable two-router reference run (%d requests)", requests)
	baseline, err := reference(f, doors)
	if err != nil {
		return err
	}

	// Phase 2 — the same request set, paced across the director's schedule:
	// router kill/restart, gossip-only membership, peer partition and heal.
	// The standing plan keeps mild latency/error pressure on the sync
	// channel the whole phase; the partition window rearms it to sever the
	// channel completely.
	log.Print("phase 2: HA run (router kill/restart, gossip join, peer partition)")
	mildRules := []failpoint.Rule{
		{Site: failpoint.RouterPeerSend, Kind: failpoint.KindLatency, Prob: 0.3, Sleep: 2 * time.Millisecond},
		{Site: failpoint.RouterPeerSend, Kind: failpoint.KindError, Prob: 0.1},
		{Site: failpoint.JoinHeartbeat, Kind: failpoint.KindError, Prob: 0.1},
	}
	partitionRules := append([]failpoint.Rule{
		{Site: failpoint.RouterPeerSend, Kind: failpoint.KindError},
		{Site: failpoint.RouterPeerRecv, Kind: failpoint.KindError},
	}, mildRules[2:]...)
	hits := f.PrefixHits()
	if err := f.Arm(failpoint.Plan{Seed: seed, Rules: mildRules}); err != nil {
		return err
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
		log.Printf("director: killing router B (%s)", rtB.Base)
		rtB.Kill()
		time.Sleep(300 * time.Millisecond)

		// Restart on the same address: B comes back empty, gates readiness
		// on its initial anti-entropy round, and relearns the fleet from A
		// plus the workers' own heartbeats.
		log.Print("director: restarting router B on its old address")
		restartAt := time.Now()
		if err := rtB.Restart(); err != nil {
			return fmt.Errorf("restarting router B: %w", err)
		}
		if err := fleettest.WaitUntil("restarted router readiness", recoverBound, func() bool {
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
		probe := fleettest.Request(0)
		probe.Tokens, probe.Session = 2, ""
		if err := fleettest.WaitUntil("restarted router serving traffic", recoverBound, func() bool {
			return f.Post(rtB.Base, probe).Outcome == fleettest.OK
		}); err != nil {
			return err
		}
		recoverTraffic = time.Since(restartAt)
		if err := fleettest.WaitUntil("restarted router reconverging", recoverBound, converged(baseWorkers)); err != nil {
			return err
		}

		// Gossip-only membership: a 4th worker registers ONLY at B; A may
		// learn it exclusively through peer sync, and must then keep its
		// lease fresh on gossiped renewals alone.
		log.Print("director: cold-joining a worker at router B only")
		joinAt := time.Now()
		w4, err := f.AddWorker(rtB)
		if err != nil {
			return fmt.Errorf("gossip-only join: %w", err)
		}
		if err := fleettest.WaitUntil("gossiped member appearing at router A", recoverBound, func() bool {
			leased, leaseMS := leaseAtA(w4.Base)
			return leased && leaseMS > 0
		}); err != nil {
			return err
		}
		gossipJoin = time.Since(joinAt)

		// Partition the peer-sync channel completely. A's only source of
		// w4 renewals is gone: its copy of the lease must lapse — honest
		// divergence, not a silent stale member.
		log.Print("director: partitioning peer sync")
		if err := f.Arm(failpoint.Plan{Seed: seed + 1, Rules: partitionRules}); err != nil {
			return err
		}
		partitionAt := time.Now()
		if err := fleettest.WaitUntil("partitioned router A's gossip lease lapsing", recoverBound, func() bool {
			leased, leaseMS := leaseAtA(w4.Base)
			return leased && leaseMS < 0
		}); err != nil {
			return err
		}
		divergeLapse = time.Since(partitionAt)

		// Heal: back to the mild plan. Anti-entropy resumes and A's copy of
		// w4 must come back to life without any re-register.
		log.Print("director: healing the partition")
		if err := f.Arm(failpoint.Plan{Seed: seed + 2, Rules: mildRules}); err != nil {
			return err
		}
		healAt := time.Now()
		if err := fleettest.WaitUntil("healed gossip reviving the lease at A", recoverBound, func() bool {
			leased, leaseMS := leaseAtA(w4.Base)
			return leased && leaseMS > 0
		}); err != nil {
			return err
		}
		healRevive = time.Since(healAt)
		return nil
	})
	if err != nil {
		return err
	}
	f.Disarm()
	fired, totalFired := f.Fired()
	hits = f.PrefixHits() - hits

	// Invariants 1 and 2: a router death is a failover, never a failure the
	// client sees, and every completion is bitwise intact. Invariant 3 was
	// enforced by the director's bounded waits; the timings go to the
	// report.
	tally, err := judge(baseline, run, true, hits)
	if err != nil {
		return err
	}
	// The kill must actually have cost somebody a failover, and the chaos
	// plans must have fired.
	if failovers == 0 {
		return fmt.Errorf("no request ever failed over: the router kill was invisible and proved nothing")
	}
	if totalFired == 0 {
		return fmt.Errorf("no fault fired at seed %d; the HA run proved nothing", seed)
	}

	// Invariant 5: identical ledgers after convergence — same members, same
	// leased flags, same ring digest, both ready.
	if err := fleettest.WaitUntil("final two-router convergence", fleettest.SettleBound, converged(baseWorkers+1)); err != nil {
		return err
	}
	if err := f.WaitIdle(); err != nil {
		return err
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
		return fmt.Errorf("membership ledgers diverge after convergence:\nrouter A:\n%s\nrouter B:\n%s", la, lb)
	}

	err = writeRecord(dir, "chaos_router_ha", map[string]int{"routers": 2, "workers": baseWorkers + 1}, map[string]float64{
		"baseline_ok":        float64(len(baseline)),
		"ha_ok":              float64(tally.OK),
		"ha_failed":          float64(tally.Failed),
		"ha_severed":         float64(tally.Severed),
		"failovers":          float64(failovers),
		"bitwise_mismatches": float64(len(tally.Mismatched)),
		"prefix_hits":        float64(hits),
		"recover_ready_ms":   ms(recoverReady),
		"recover_traffic_ms": ms(recoverTraffic),
		"gossip_join_ms":     ms(gossipJoin),
		"diverge_lapse_ms":   ms(divergeLapse),
		"heal_revive_ms":     ms(healRevive),
		"members_final":      float64(stA.Members),
		"router_a_syncs_in":  float64(stA.SyncsIn),
		"router_b_syncs_in":  float64(stB.SyncsIn),
		"faults_fired":       float64(totalFired),
	}, fired)
	if err != nil {
		return err
	}
	fmt.Printf("router-ha: %d requests → %d ok, 0 lost, 0 bitwise mismatches across a router kill (%d failovers); %d faults fired, prefix_hits %d\n",
		requests, tally.OK, failovers, totalFired, hits)
	fmt.Printf("recovery: ready %.0fms, traffic %.0fms after restart; gossip join %.0fms, partition lapse %.0fms, heal revive %.0fms; ledgers identical (digest %s)\n",
		ms(recoverReady), ms(recoverTraffic), ms(gossipJoin), ms(divergeLapse), ms(healRevive), stA.RingDigest)
	return nil
}
