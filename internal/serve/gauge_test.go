package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/sample"
)

// blockingBatch pins decode in flight: every Step waits on release, so a
// test can hold a known request population inside the server while it
// samples the InFlight/Queued gauges.
type blockingBatch struct {
	fakeBatch
	release chan struct{}
}

func (b *blockingBatch) Step(ids, toks []int) [][]float64 {
	<-b.release
	return b.fakeBatch.Step(ids, toks)
}

// waitStats polls Stats until cond accepts a snapshot or the deadline
// expires, returning the last snapshot either way.
func waitStats(s *Server, cond func(Stats) bool) Stats {
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if cond(st) || time.Now().After(deadline) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInFlightQueuedGauges pins the live-load gauges a routing tier polls:
// with the batch full and decode blocked, InFlight counts every accepted
// request and Queued the ones still waiting for admission; both return to
// zero once the server drains.
func TestInFlightQueuedGauges(t *testing.T) {
	m := testLLM(t)
	s := newServer(m, Config{MaxBatch: 2, CoalesceWait: -1})
	fake := &blockingBatch{
		fakeBatch: fakeBatch{vocab: m.Tok.VocabSize()},
		release:   make(chan struct{}),
	}
	s.newBatch = func() batchPredictor { return fake }
	s.wg.Add(1)
	go s.loop()

	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Do(context.Background(), Request{Prompt: "the king", MaxTokens: 2}); err != nil {
				t.Errorf("Do: %v", err)
			}
		}()
	}
	// With coalescing disabled the idle loop admits exactly one request,
	// prefills it, and blocks in its first decode step; the other 3 wait in
	// the submission queue. All 4 are in flight.
	st := waitStats(s, func(st Stats) bool { return st.InFlight == n && st.Queued == n-1 })
	if st.InFlight != n {
		t.Errorf("InFlight = %d with %d requests held in the server, want %d", st.InFlight, n, n)
	}
	if st.Queued != n-1 {
		t.Errorf("Queued = %d with one request admitted and %d in flight, want %d", st.Queued, n, n-1)
	}

	close(fake.release)
	wg.Wait()
	st = waitStats(s, func(st Stats) bool { return st.InFlight == 0 })
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("after drain InFlight = %d, Queued = %d, want 0, 0", st.InFlight, st.Queued)
	}
	if st.Completed != n {
		t.Errorf("Completed = %d, want %d", st.Completed, n)
	}
	s.Close()
}

// TestGaugesUnderConcurrentLoad hammers a real batched server with
// concurrent streaming requests while a sampler goroutine reads the gauges:
// every snapshot must be internally consistent (0 <= Queued <= InFlight <=
// accepted population), and both gauges must settle at zero when the load
// stops. Run under -race this also proves Stats' snapshot path is safe
// against the serving loop.
func TestGaugesUnderConcurrentLoad(t *testing.T) {
	m := testLLM(t)
	s := New(m, Config{MaxBatch: 4})
	defer s.Close()

	const n = 16
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Stats()
			if st.Queued < 0 || st.InFlight < 0 || st.Queued > st.InFlight || st.InFlight > n {
				t.Errorf("inconsistent gauges: InFlight=%d Queued=%d", st.InFlight, st.Queued)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			req := Request{Prompt: "the king sees", MaxTokens: 6, Seed: seed}
			if _, err := s.Stream(context.Background(), req, func(sample.Token) error { return nil }); err != nil {
				t.Errorf("Stream: %v", err)
			}
		}(uint64(i))
	}
	wg.Wait()
	close(stop)
	sampler.Wait()

	st := waitStats(s, func(st Stats) bool { return st.InFlight == 0 })
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("idle gauges InFlight = %d, Queued = %d, want 0, 0", st.InFlight, st.Queued)
	}
	if st.Completed != n {
		t.Errorf("Completed = %d, want %d", st.Completed, n)
	}
}
