package main

import (
	"fmt"
	"log"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/failpoint"
	"repro/internal/fleettest"
	"repro/internal/httpapi"
	"repro/internal/router"
)

// requests is the size of the seeded request set every scenario drives
// twice. The pinned-seed fault schedules are tuned to it (and to
// fleettest.Tokens per request), which is why it is not a flag.
const requests = 60

// reference is every scenario's phase 1: the fault-free run whose outputs
// later survivors must match bitwise. It must be clean and must reconcile.
func reference(f *fleettest.Fleet, doors []string) ([]fleettest.Result, error) {
	baseline, _ := f.Drive(doors, requests, 0, nil)
	for i, r := range baseline {
		if r.Outcome != fleettest.OK {
			return nil, fmt.Errorf("fault-free request %d failed (status %d): the baseline must be clean", i, r.Status)
		}
	}
	return baseline, f.WaitIdle()
}

// driveUnder is the faulted phase of the scenarios with a schedule: the
// same request set, paced over span, while director acts on the live fleet.
func driveUnder(f *fleettest.Fleet, doors []string, span time.Duration, director func() error) (run []fleettest.Result, failovers int, err error) {
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
// faulted phase saw: none means it never ran on restored blocks.
func judge(baseline, run []fleettest.Result, mustSucceed bool, hits uint64) (fleettest.Tally, error) {
	t := fleettest.Compare(baseline, run)
	for _, i := range t.Mismatched {
		log.Printf("BITWISE MISMATCH request %d: %q != %q", i, run[i].Completion, baseline[i].Completion)
	}
	switch {
	case len(t.Lost) > 0:
		return t, fmt.Errorf("lost requests: %d ok + %d failed + %d severed != %d sent (no outcome for %v)",
			t.OK, t.Failed, t.Severed, len(baseline), t.Lost)
	case mustSucceed && t.OK != len(baseline):
		for i, r := range run {
			if r.Outcome != fleettest.OK {
				log.Printf("request %d: outcome %d, status %d", i, r.Outcome, r.Status)
			}
		}
		return t, fmt.Errorf("lost requests: %d ok + %d failed + %d severed != %d sent all-ok",
			t.OK, t.Failed, t.Severed, len(baseline))
	case len(t.Mismatched) > 0:
		return t, fmt.Errorf("%d surviving requests diverged from the fault-free run", len(t.Mismatched))
	case hits == 0:
		return t, fmt.Errorf("no prefix block was restored in the faulted phase; the run proved nothing")
	}
	return t, nil
}

// writeRecord writes one scenario's BENCH_<bench>.json: its metrics plus the
// per-site fire counts, over the fleet shape.
func writeRecord(dir, bench string, shape map[string]int, metrics map[string]float64, fired map[string]uint64) error {
	for site, n := range fired {
		metrics["fired_"+strings.ReplaceAll(site, "/", "_")] = float64(n)
	}
	shape["conns"], shape["requests"], shape["tokens"] = fleettest.Conns, requests, fleettest.Tokens
	return writeBench(filepath.Join(dir, "BENCH_"+bench+".json"), perfResult{
		Bench: bench, Shape: shape, Reps: requests, Metrics: metrics, UnixTime: time.Now().Unix(),
	})
}

// runChaos is the serving-path chaos scenario behind llm-bench -chaos (E24):
// two static workers behind one probing router, the request set driven
// fault-free and then under a plan spanning every serving layer (sampler
// panics, a whole-batch step fault, prefill and verify errors, relay
// faults, dropped connections, starved deadlines). It asserts invariants
// rather than a golden fault log, because concurrency reorders which
// request absorbs which fault:
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
func runChaos(dir string, seed uint64) error {
	const (
		workers       = 2
		recoveryBound = 10 * time.Second
	)
	log.Print("training the chaos-fleet transformer")
	f, err := fleettest.NewTransformer(seed)
	if err != nil {
		return err
	}
	defer f.Close()
	var bases []string
	for i := 0; i < workers; i++ {
		w, err := f.AddWorker()
		if err != nil {
			return err
		}
		bases = append(bases, w.Base)
	}
	rts, err := f.StartRouters(1, router.Config{
		Backends: bases, MaxAttempts: 3, RetryBackoff: 5 * time.Millisecond,
		HealthInterval: 20 * time.Millisecond, FailThreshold: 2,
		RelayTimeout: 5 * time.Second,
	})
	if err != nil {
		return err
	}
	front := rts[0]
	doors := []string{front.Base} // one door: a failure is the outcome

	log.Printf("phase 1: fault-free reference run (%d requests)", requests)
	baseline, err := reference(f, doors)
	if err != nil {
		return err
	}

	// Probabilities are low enough that most requests survive (the bitwise
	// invariant needs survivors) and high enough that every kind of fault
	// fires at the pinned seed. The sampler rule's probability is the
	// highest: a lone decoding request is verified rather than sampled in
	// the pass, so serve/sample sees only ≈ 140 hits a run. Every 8th armed
	// request carries a 1ms deadline budget, exercising the 504 path.
	log.Print("phase 2: chaos run under the armed fault plan")
	hits := f.PrefixHits()
	if err := f.Arm(failpoint.Plan{Seed: seed, Rules: []failpoint.Rule{
		{Site: failpoint.ServeSample, Kind: failpoint.KindPanic, Prob: 0.05},
		{Site: failpoint.ServeStep, Kind: failpoint.KindError, After: 20, Count: 1},
		{Site: failpoint.ServePrefill, Kind: failpoint.KindError, Prob: 0.03},
		{Site: failpoint.ServeVerify, Kind: failpoint.KindError, Prob: 0.03},
		{Site: failpoint.HTTPGenerate, Kind: failpoint.KindDrop, Prob: 0.03},
		{Site: failpoint.RouterRelay, Kind: failpoint.KindError, Prob: 0.05},
	}}); err != nil {
		return err
	}
	run, _ := f.Drive(doors, requests, 0, func(i int, req *httpapi.GenRequest) {
		if i%8 == 5 {
			req.TimeoutMS = 1
		}
	})
	f.Disarm()
	fired, totalFired := f.Fired()
	if err := f.WaitIdle(); err != nil {
		return err
	}
	hits = f.PrefixHits() - hits
	tally, err := judge(baseline, run, false, hits) // invariants 1 and 3
	if err != nil {
		return err
	}
	// Invariant 2: panics fired and every worker outlived them.
	var panics, failed uint64
	for _, w := range f.Workers {
		st := w.Stats()
		panics += st.Panics
		failed += st.Failed
	}
	if panics == 0 {
		return fmt.Errorf("no sampler panic fired at seed %d; the chaos run proved nothing", seed)
	}
	for _, w := range f.Workers {
		if r := f.Post(w.Base, fleettest.Request(0)); r.Outcome != fleettest.OK {
			return fmt.Errorf("worker %s did not survive the chaos phase: fresh request got %d", w.Base, r.Status)
		}
	}

	// Invariant 4: enough consecutive probe faults to eject every worker
	// (FailThreshold 2, one fault per worker per 20ms probe round), then how
	// long the fleet takes to go all-healthy once the faults run out.
	log.Print("phase 3: probe-fault ejection and recovery timing")
	healthy := func() bool { return fleettest.Converged(workers, front) }
	if err := f.Arm(failpoint.Plan{Seed: seed, Rules: []failpoint.Rule{
		{Site: failpoint.RouterProbe, Kind: failpoint.KindError, Count: 2 * workers},
	}}); err != nil {
		return err
	}
	ejectStart := time.Now()
	if err := fleettest.WaitUntil("probe faults ejecting a worker", recoveryBound, func() bool { return !healthy() }); err != nil {
		return err
	}
	ejected := time.Since(ejectStart)
	recoverStart := time.Now()
	if err := fleettest.WaitUntil("the ejected fleet recovering", recoveryBound, healthy); err != nil {
		return err
	}
	recovery := time.Since(recoverStart)
	f.Disarm()
	if r := f.Post(front.Base, fleettest.Request(0)); r.Outcome != fleettest.OK {
		return fmt.Errorf("recovered fleet rejected a clean request: status %d", r.Status)
	}

	err = writeRecord(dir, "chaos", map[string]int{"workers": workers}, map[string]float64{
		"baseline_ok":        float64(len(baseline)),
		"chaos_ok":           float64(tally.OK),
		"chaos_failed":       float64(tally.Failed),
		"chaos_severed":      float64(tally.Severed),
		"bitwise_mismatches": float64(len(tally.Mismatched)),
		"prefix_hits":        float64(hits),
		"worker_panics":      float64(panics),
		"worker_failed":      float64(failed),
		"ejection_ms":        ms(ejected),
		"recovery_ms":        ms(recovery),
		"faults_fired":       float64(totalFired),
	}, fired)
	if err != nil {
		return err
	}
	fmt.Printf("chaos: %d requests → %d ok, %d failed, %d severed; %d faults fired, %d panics survived, 0 lost, 0 bitwise mismatches, prefix_hits %d\n",
		requests, tally.OK, tally.Failed, tally.Severed, totalFired, panics, hits)
	fmt.Printf("recovery: ejected in %.0fms, fleet healthy %.0fms after faults cleared\n", ms(ejected), ms(recovery))
	return nil
}
