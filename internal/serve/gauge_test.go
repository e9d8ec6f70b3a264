package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/sample"
	"repro/internal/transformer"
)

// gatedBatch wraps a loop predictor and holds its passes from the hold-th on
// (1 = the first) until the test calls open; held is closed when the loop
// enters the hold-th pass. A test pins a known request population inside the
// server at a known point, say the first pass running and every later
// request queued, without waiting on the clock.
type gatedBatch struct {
	batchPredictor
	hold    int
	passes  int // loop goroutine only
	held    chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedBatch) Pass(chunks []transformer.Chunk) [][]float64 {
	if g.passes++; g.passes == g.hold {
		close(g.held)
	}
	if g.passes >= g.hold {
		<-g.release
	}
	return g.batchPredictor.Pass(chunks)
}

// open releases the held pass and every later one.
func (g *gatedBatch) open() { g.once.Do(func() { close(g.release) }) }

// gate wraps s's predictor in a gatedBatch holding from the hold-th pass and
// starts the loop. A cleanup opens the gate and closes s, so a test that
// fails while the loop is held still shuts the server down; such a test
// must not also defer s.Close, which would wait on the held loop.
func gate(t *testing.T, s *Server, hold int) *gatedBatch {
	t.Helper()
	g := &gatedBatch{batchPredictor: s.newBatch(), hold: hold,
		held: make(chan struct{}), release: make(chan struct{})}
	s.newBatch = func() batchPredictor { return g }
	s.wg.Add(1)
	go s.loop()
	t.Cleanup(func() {
		g.open()
		s.Close()
	})
	return g
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

// waitQueued waits until n requests sit in s's submission queue, behind a
// held pass.
func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	if st := waitStats(s, func(st Stats) bool { return st.Queued == n }); st.Queued != n {
		t.Fatalf("Queued = %d behind the held pass, want %d", st.Queued, n)
	}
}

// TestInFlightQueuedGauges pins the live-load gauges a routing tier polls:
// with the batch full and decode blocked, InFlight counts every accepted
// request and Queued the ones still waiting for admission; both return to
// zero once the server drains.
func TestInFlightQueuedGauges(t *testing.T) {
	m := testLLM(t)
	s := newServer(m, Config{MaxBatch: 2})
	s.newBatch = func() batchPredictor { return &fakeBatch{vocab: m.Tok.VocabSize()} }
	g := gate(t, s, 1)

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
	// The idle loop admits exactly one request and blocks in its first pass;
	// the other 3 wait in the submission queue. All 4 are in flight.
	st := waitStats(s, func(st Stats) bool { return st.InFlight == n && st.Queued == n-1 })
	if st.InFlight != n {
		t.Errorf("InFlight = %d with %d requests held in the server, want %d", st.InFlight, n, n)
	}
	if st.Queued != n-1 {
		t.Errorf("Queued = %d with one request admitted and %d in flight, want %d", st.Queued, n, n-1)
	}

	g.open()
	wg.Wait()
	st = waitStats(s, func(st Stats) bool { return st.InFlight == 0 })
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("after drain InFlight = %d, Queued = %d, want 0, 0", st.InFlight, st.Queued)
	}
	if st.Completed != n {
		t.Errorf("Completed = %d, want %d", st.Completed, n)
	}
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
