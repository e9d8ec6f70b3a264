package failpoint

import (
	"errors"
	"testing"
	"time"
)

// TestDisarmedInjectIsNil pins the production state: no plan, no fault, at
// every compiled-in site.
func TestDisarmedInjectIsNil(t *testing.T) {
	Disarm()
	if Armed() {
		t.Fatal("registry armed with no plan installed")
	}
	for _, s := range Sites() {
		if err := Inject(s); err != nil {
			t.Fatalf("disarmed Inject(%s) = %v, want nil", s, err)
		}
	}
}

// TestDisarmedInjectZeroAlloc pins the disarmed fast path: one atomic load,
// no allocation — the property that lets the sites ship in release builds.
func TestDisarmedInjectZeroAlloc(t *testing.T) {
	Disarm()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := Inject(ServeStep); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disarmed Inject allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkDisarmedInject(b *testing.B) {
	Disarm()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Inject(ServeStep); err != nil {
			b.Fatal(err)
		}
	}
}

// TestArmRejectsBadRules: typos, retired sites and out-of-range
// probabilities must not silently install a no-op chaos schedule.
func TestArmRejectsBadRules(t *testing.T) {
	defer Disarm()
	if err := Arm(Plan{Rules: []Rule{{Site: "serve/nope"}}}); err == nil {
		t.Fatal("Arm accepted an unknown site")
	}
	if err := Arm(Plan{Rules: []Rule{{Site: "serve/verify"}}}); err == nil {
		t.Fatal("Arm accepted the retired serve/verify site")
	}
	if err := Arm(Plan{Rules: []Rule{{Site: ServeStep, Prob: 1.5}}}); err == nil {
		t.Fatal("Arm accepted probability 1.5")
	}
	if Armed() {
		t.Fatal("failed Arm left the registry armed")
	}
}

// TestErrorRule: a Prob-1 error rule fires on every hit, wraps ErrInjected,
// and the counters record it.
func TestErrorRule(t *testing.T) {
	defer Disarm()
	if err := Arm(Plan{Seed: 1, Rules: []Rule{{Site: RouterRelay, Kind: KindError, Msg: "boom"}}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		err := Inject(RouterRelay)
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: err = %v, want ErrInjected", i, err)
		}
		if errors.Is(err, ErrDrop) {
			t.Fatalf("error rule produced ErrDrop: %v", err)
		}
	}
	if err := Inject(RouterProbe); err != nil {
		t.Fatalf("unruled site injected: %v", err)
	}
	st := Stats()[RouterRelay]
	if st.Hits != 3 || st.Fired != 3 {
		t.Fatalf("stats = %+v, want 3 hits / 3 fired", st)
	}
}

// TestAfterAndCountSchedule: After skips leading hits, Count caps the total.
func TestAfterAndCountSchedule(t *testing.T) {
	defer Disarm()
	if err := Arm(Plan{Seed: 7, Rules: []Rule{
		{Site: HTTPGenerate, Kind: KindError, After: 2, Count: 3},
	}}); err != nil {
		t.Fatal(err)
	}
	var fired []int
	for i := 0; i < 10; i++ {
		if Inject(HTTPGenerate) != nil {
			fired = append(fired, i)
		}
	}
	want := []int{2, 3, 4}
	if len(fired) != len(want) {
		t.Fatalf("fired on hits %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired on hits %v, want %v", fired, want)
		}
	}
}

// TestProbabilisticDeterminism: the same seed reproduces the same
// activation pattern; a different seed varies it; the empirical rate tracks
// Prob.
func TestProbabilisticDeterminism(t *testing.T) {
	defer Disarm()
	pattern := func(seed uint64) []bool {
		if err := Arm(Plan{Seed: seed, Rules: []Rule{{Site: ServeStep, Kind: KindError, Prob: 0.3}}}); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 200)
		for i := range out {
			out[i] = Inject(ServeStep) != nil
		}
		return out
	}
	a, b, c := pattern(42), pattern(42), pattern(43)
	fires, differs := 0, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d: same seed, different activation", i)
		}
		if a[i] != c[i] {
			differs = true
		}
		if a[i] {
			fires++
		}
	}
	if !differs {
		t.Fatal("seeds 42 and 43 produced identical schedules")
	}
	if fires < 30 || fires > 90 {
		t.Fatalf("Prob 0.3 fired %d/200 times, outside [30,90]", fires)
	}
}

// TestPanicAndDropKinds: panic rules panic with *Panicked, drop rules
// return ErrDrop.
func TestPanicAndDropKinds(t *testing.T) {
	defer Disarm()
	if err := Arm(Plan{Seed: 3, Rules: []Rule{
		{Site: ServeSample, Kind: KindPanic, Count: 1},
		{Site: HTTPStreamMid, Kind: KindDrop},
	}}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			p, ok := recover().(*Panicked)
			if !ok || p.Site != ServeSample {
				t.Fatalf("recover() = %v, want *Panicked at %s", p, ServeSample)
			}
			if !errors.Is(p, ErrInjected) {
				t.Fatal("*Panicked does not unwrap to ErrInjected")
			}
		}()
		Inject(ServeSample)
	}()
	// Count exhausted: next hit passes.
	if err := Inject(ServeSample); err != nil {
		t.Fatalf("exhausted panic rule still fired: %v", err)
	}
	if err := Inject(HTTPStreamMid); !errors.Is(err, ErrDrop) {
		t.Fatalf("drop rule returned %v, want ErrDrop", err)
	}
}

// TestLatencyRule: latency rules pause and proceed.
func TestLatencyRule(t *testing.T) {
	defer Disarm()
	if err := Arm(Plan{Seed: 5, Rules: []Rule{
		{Site: ServePrefill, Kind: KindLatency, Sleep: 20 * time.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := Inject(ServePrefill); err != nil {
		t.Fatalf("latency rule returned %v, want nil", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("latency rule slept %v, want >= 20ms", d)
	}
}

// TestDisarmClearsPlan: Disarm returns every site to pass-through.
func TestDisarmClearsPlan(t *testing.T) {
	if err := Arm(Plan{Seed: 1, Rules: []Rule{{Site: ServeStep, Kind: KindError}}}); err != nil {
		t.Fatal(err)
	}
	if Inject(ServeStep) == nil {
		t.Fatal("armed rule did not fire")
	}
	Disarm()
	if err := Inject(ServeStep); err != nil {
		t.Fatalf("disarmed Inject = %v, want nil", err)
	}
	if len(Stats()) != 0 {
		t.Fatal("Disarm left site stats behind")
	}
}
