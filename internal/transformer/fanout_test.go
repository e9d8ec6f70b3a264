package transformer

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mathx"
	"repro/internal/nn"
)

// TestFanOutHandoffRunsEachItemOnce drives rowParallel as a worker
// process's two serve loops do: two goroutines each make 2 000 calls over
// 1–40 items, and every second call comes after a sleep past fanIdle, so
// the helpers have parked (or are parking) and must be woken. Every item
// must run exactly once per call, at GOMAXPROCS 2 and 8. A call over two or
// more items must also be joined: its first item waits until another
// goroutine starts an item of the call, which happens only if a helper is
// awake or woken. A wake-up lost to a helper that parks just as a call is
// published leaves that item waiting out its deadline.
func TestFanOutHandoffRunsEachItemOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		var wg sync.WaitGroup
		for g := uint64(0); g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := mathx.NewRNG(60 + g)
				var runs [40]atomic.Int32
				for call := 0; call < 2000; call++ {
					if call%2 == 0 {
						time.Sleep(fanIdle + time.Duration(rng.Intn(int(fanIdle/2))))
					}
					n := 1 + rng.Intn(len(runs))
					var started atomic.Int32
					var first atomic.Bool
					joined := true
					rowParallel(n, func(i int) {
						started.Add(1)
						runs[i].Add(1)
						if n >= 2 && first.CompareAndSwap(false, true) {
							for deadline := time.Now().Add(2 * time.Second); started.Load() < 2 && time.Now().Before(deadline); {
								runtime.Gosched()
							}
							joined = started.Load() >= 2
						}
					})
					for i := range runs {
						want := int32(0)
						if i < n {
							want = 1
						}
						if got := runs[i].Swap(0); got != want {
							t.Errorf("GOMAXPROCS %d, goroutine %d, call %d over %d items: item %d ran %d times", procs, g, call, n, i, got)
							return
						}
					}
					if !joined {
						t.Errorf("GOMAXPROCS %d, goroutine %d, call %d over %d items: no helper joined within 2 s (a lost wake-up)", procs, g, call, n)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestFanOutHelpersPark pins that an idle worker costs a parked goroutine:
// after a fanned-out pass, every helper parks within a few fanIdle (the
// deadline leaves room for a loaded machine) and stops taking CPU.
func TestFanOutHelpersPark(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := Config{Vocab: 64, Dim: 64, Layers: 2, Heads: 4, Window: 320, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(61))
	bp := m.NewBatchedPredictor()
	bp.Prefill(bp.Add(), randTokens(mathx.NewRNG(62), 64, cfg.Vocab))
	if !rowFanOut(m.Cfg, len(bp.rows)) {
		t.Fatalf("a %d-row pass does not fan out", len(bp.rows))
	}
	time.Sleep(4 * fanIdle)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(fanIdle) {
		fan.Lock()
		parked, helpers := len(fan.parked), fan.helpers
		fan.Unlock()
		if helpers == 0 {
			t.Fatal("a fanned-out pass started no helper")
		}
		if parked == helpers {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d helpers still awake 2 s after a fanned-out pass", helpers-parked, helpers)
		}
	}
}
