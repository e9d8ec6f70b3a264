package httpapi

import (
	"bufio"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestExitWaitsForInFlightStream drives the binaries' exit path with no
// signal and no fixed port: a joined worker with one /v1/stream in flight
// is drained through its context. The deregister reaches the router first,
// the stream still ends in its done frame, and Serve returns nil only once
// the stream has finished — not when Shutdown closes the listener.
func TestExitWaitsForInFlightStream(t *testing.T) {
	const tokens = 4
	fr := newFakeRouter(t)
	gate := make(chan struct{})
	srv := serve.New(slowModel(testModel(), gate), serve.Config{})
	t.Cleanup(srv.Close)
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release) // a failing test must not leave the batch loop blocked
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + ln.Addr().String()
	j, err := StartJoiner(JoinConfig{
		Routers: []string{fr.ts.URL}, Self: self,
		Lease: time.Second, Interval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	exit := NewExit(5*time.Second, func(ctx context.Context) {
		if err := j.Leave(ctx); err != nil {
			t.Errorf("Leave: %v", err)
		}
	})
	h := New(srv, exit.Shutdown)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- exit.Serve(ctx, ln, h) }()
	waitJoin(t, "the first register", func() bool { return fr.registers.Load() >= 1 })

	resp := postJSON(t, self+"/v1/stream", GenRequest{Prompt: "the king", Tokens: tokens})
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	readEvent(t, r) // token 1; the stream now blocks on the gate

	cancel()
	waitJoin(t, "the deregister", func() bool { return fr.deregisters.Load() == 1 })
	if got := fr.lastDereg.Load().(DeregisterRequest).URL; got != self {
		t.Fatalf("deregistered %q, want %q", got, self)
	}
	// Shutdown closes the listener right after the deregister; Serve must
	// still be waiting for the held stream well after that.
	waitJoin(t, "the listener to close", func() bool {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			c.Close()
		}
		return err != nil
	})
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a stream still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	if !h.Draining() {
		t.Fatal("the context ended but the handler is not draining")
	}

	release()
	pieces, done := sseEvents(t, r)
	if len(pieces) != tokens-1 || !done.Done {
		t.Fatalf("drained stream: %d more tokens, done %v; want %d and a done frame", len(pieces), done.Done, tokens-1)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve after a clean drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the stream finished")
	}
}
