package fleettest

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/failpoint"
	"repro/internal/grammar"
	"repro/internal/httpapi"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/tokenizer"
	"repro/internal/transformer"
)

// untrained is a TinyEnglish transformer at the fleet's window. Serving
// does not depend on weight values, so nothing is trained.
func untrained() *core.LLM {
	tok := tokenizer.NewWord(corpus.PCFGText(grammar.TinyEnglish(), 200, 8, mathx.NewRNG(1)))
	return &core.LLM{Tok: tok, Model: transformer.MustNew(transformer.Config{
		Vocab: tok.VocabSize(), Dim: 16, Layers: 1, Heads: 2, Window: window,
		Pos: transformer.PosLearned, Act: nn.GELU,
	}, mathx.NewRNG(1))}
}

// testFleet starts 2 static transformer workers behind one router.
func testFleet(t *testing.T) (*Fleet, *Router) {
	t.Helper()
	f := New(untrained(), serve.Config{})
	t.Cleanup(f.Close)
	var bases []string
	for i := 0; i < 2; i++ {
		w, err := f.AddWorker()
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, w.Base)
	}
	rts, err := f.StartRouters(1, router.Config{
		Backends: bases, RetryBackoff: time.Millisecond,
		HealthInterval: 10 * time.Millisecond, FailThreshold: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, rts[0]
}

func driveClean(t *testing.T, f *Fleet, bases []string, n int) []Result {
	t.Helper()
	res, _ := f.Drive(bases, n, 0, nil)
	for i, r := range res {
		if r.Outcome != OK {
			t.Fatalf("request %d: outcome %d, status %d", i, r.Outcome, r.Status)
		}
	}
	return res
}

// TestKillRestartBitwise drives the fleet, kills a worker and restarts it on
// the same address, and drives again: the fleet reconciles and the second
// run equals the first.
func TestKillRestartBitwise(t *testing.T) {
	f, rt := testFleet(t)
	const n = 12
	baseline := driveClean(t, f, []string{rt.Base}, n)

	w := f.Workers[0]
	w.Kill()
	if err := WaitUntil("ejection of the killed worker", 5*time.Second, func() bool { return !rt.Healthy(w.Base) }); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitIdle(); err != nil {
		t.Fatalf("a killed worker must not hold WaitIdle up: %v", err)
	}
	base := w.Base
	if err := w.Restart(); err != nil {
		t.Fatal(err)
	}
	if w.Base != base {
		t.Fatalf("restarted on %s, was %s", w.Base, base)
	}
	if err := WaitUntil("readmission", 5*time.Second, func() bool { return Converged(2, rt) }); err != nil {
		t.Fatal(err)
	}

	run := driveClean(t, f, []string{rt.Base}, n)
	if err := f.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	if tally := Compare(baseline, run); tally.OK != n || len(tally.Lost) != 0 || len(tally.Mismatched) != 0 {
		t.Fatalf("second drive differs from the first: %+v", tally)
	}
	if got := w.Stats().Requests; got == 0 || got > n {
		t.Errorf("restarted worker's fresh server counts %d requests", got)
	}
}

func TestCompare(t *testing.T) {
	baseline := []Result{
		{Outcome: OK, Completion: "a"}, {Outcome: OK, Completion: "b"},
		{Outcome: OK, Completion: "c"}, {Outcome: OK, Completion: "d"},
		{Outcome: OK, Completion: "e"},
	}
	run := []Result{
		{Outcome: OK, Completion: "a"},
		{Outcome: OK, Completion: "B"}, // corrupted
		{Outcome: Failed, Status: 502},
		{}, // never got an outcome
	} // index 4 dropped
	got := Compare(baseline, run)
	if got.OK != 2 || got.Failed != 1 || got.Severed != 0 {
		t.Errorf("tally = %+v", got)
	}
	if len(got.Mismatched) != 1 || got.Mismatched[0] != 1 {
		t.Errorf("Mismatched = %v, want [1]", got.Mismatched)
	}
	if len(got.Lost) != 2 || got.Lost[0] != 3 || got.Lost[1] != 4 {
		t.Errorf("Lost = %v, want [3 4]", got.Lost)
	}
}

// TestDriveFailover closes the first of two front doors: every request that
// prefers it fails over, and every index still gets exactly one outcome —
// the same one a direct run produces.
func TestDriveFailover(t *testing.T) {
	f, rt := testFleet(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := "http://" + ln.Addr().String()
	ln.Close()

	const n = 12
	baseline := driveClean(t, f, []string{rt.Base}, n)
	var mu sync.Mutex
	seen := make([]int, n)
	run, failovers := f.Drive([]string{closed, rt.Base}, n, 0, func(i int, _ *httpapi.GenRequest) {
		mu.Lock()
		seen[i]++
		mu.Unlock()
	})
	if failovers != n/2 {
		t.Errorf("failovers = %d, want %d (the even indices prefer the closed door)", failovers, n/2)
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("index %d issued %d times", i, c)
		}
	}
	if tally := Compare(baseline, run); tally.OK != n || len(tally.Mismatched) != 0 {
		t.Errorf("failover run differs from the direct run: %+v", tally)
	}

	// One door: one attempt, and the failure is the outcome.
	res, failovers := f.Drive([]string{closed}, 2, 0, nil)
	if failovers != 0 || res[0].Outcome != Severed || res[1].Outcome != Severed {
		t.Errorf("closed single door: %+v, %d failovers", res, failovers)
	}
}

func TestDrivePace(t *testing.T) {
	f, rt := testFleet(t)
	const n, pace = 10, 15 * time.Millisecond
	issued := make([]time.Duration, n)
	start := time.Now() // not after the driver's own start, so the bound carries over
	f.Drive([]string{rt.Base}, n, pace, func(i int, _ *httpapi.GenRequest) {
		issued[i] = time.Since(start)
	})
	for i, at := range issued {
		if at < time.Duration(i)*pace {
			t.Errorf("request %d issued at %s, before %s", i, at, time.Duration(i)*pace)
		}
	}
}

// TestJoinedWorkersAndPeers runs the dynamic shape: two peered routers that
// start empty, workers enrolling through the real join loop, a graceful
// leave, and a router restart that relearns the fleet.
func TestJoinedWorkersAndPeers(t *testing.T) {
	f := New(untrained(), serve.Config{})
	t.Cleanup(f.Close)
	rts, err := f.StartRouters(2, router.Config{
		HealthInterval: 10 * time.Millisecond, DefaultLease: Lease, SyncInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := f.AddWorker(rts...); err != nil {
			t.Fatal(err)
		}
	}
	converged := func(n int) func() bool { return func() bool { return Converged(n, rts...) } }
	if err := WaitUntil("both workers at both routers", 5*time.Second, converged(2)); err != nil {
		t.Fatal(err)
	}
	driveClean(t, f, []string{rts[0].Base, rts[1].Base}, 6)

	rts[1].Kill()
	if err := rts[1].Restart(); err != nil {
		t.Fatal(err)
	}
	if err := WaitUntil("restarted router relearning the fleet", 5*time.Second, converged(2)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Workers[1].Leave(ctx); err != nil {
		t.Fatal(err)
	}
	if err := WaitUntil("the leave reaching both routers", 5*time.Second, converged(1)); err != nil {
		t.Fatal(err)
	}
}

// TestFiredBanksAcrossPlans: arming a second plan resets failpoint's own
// counters; the fleet's tally must not lose the first plan's fires.
func TestFiredBanksAcrossPlans(t *testing.T) {
	f, rt := testFleet(t)
	relayFault := failpoint.Plan{Seed: 1, Rules: []failpoint.Rule{
		{Site: failpoint.RouterRelay, Kind: failpoint.KindError, Count: 1},
	}}
	for i := 0; i < 2; i++ {
		if err := f.Arm(relayFault); err != nil {
			t.Fatal(err)
		}
		if r := f.Post(rt.Base, Request(0)); r.Outcome != OK {
			t.Fatalf("the router should retry past one relay fault: %+v", r)
		}
	}
	f.Disarm()
	bySite, total := f.Fired()
	if total != 2 || bySite[failpoint.RouterRelay] != 2 {
		t.Errorf("fired = %v (total %d), want 2 relay faults", bySite, total)
	}
}

// TestDrivenPromptsReachPrefixCache: on a transformer with the fleet's window
// the driven prompts share two cache blocks, so a worker restores them from
// the second sighting on, and a restart does not lose the count.
func TestDrivenPromptsReachPrefixCache(t *testing.T) {
	f := New(untrained(), serve.Config{PrefillChunk: 4})
	t.Cleanup(f.Close)
	w, err := f.AddWorker()
	if err != nil {
		t.Fatal(err)
	}
	baseline := driveClean(t, f, []string{w.Base}, 2*Conns)
	hits := f.PrefixHits()
	if hits == 0 {
		t.Fatal("two waves of prompts sharing the preamble restored no prefix block")
	}
	w.Kill()
	if err := w.Restart(); err != nil {
		t.Fatal(err)
	}
	// Driving a worker directly, nothing retries a request sent down a
	// pooled connection the kill severed.
	f.Client.CloseIdleConnections()
	run := driveClean(t, f, []string{w.Base}, 2*Conns)
	if got := f.PrefixHits(); got <= hits {
		t.Errorf("prefix hits %d after a restart and a second drive, %d before", got, hits)
	}
	if tally := Compare(baseline, run); len(tally.Mismatched) != 0 {
		t.Errorf("restored-block completions differ from the first drive: %+v", tally)
	}
}
