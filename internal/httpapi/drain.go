package httpapi

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Drainer is the drain switch the worker's Handler and the router embed.
// After Drain, generation requests are refused with 503 + Retry-After and
// /healthz turns not-ready, while requests already admitted, SSE streams
// included, run to completion. The front ends differ only in the values
// they pass NewDrainer: the Retry-After hint and the readiness predicate.
type Drainer struct {
	draining   atomic.Bool
	once       sync.Once
	onDrain    func()
	retryAfter string
	ready      func() (ok bool, why string)
}

// NewDrainer builds a drain switch. onDrain, if non-nil, runs once, on its
// own goroutine: run synchronously it would deadlock with an
// http.Server.Shutdown that waits for the /v1/drain request that triggered
// it. ready, if non-nil, gates /healthz before the drain.
func NewDrainer(onDrain func(), retryAfter string, ready func() (ok bool, why string)) *Drainer {
	return &Drainer{onDrain: onDrain, retryAfter: retryAfter, ready: ready}
}

// Drain enters drain mode. Idempotent: the onDrain hook fires once.
func (d *Drainer) Drain() {
	d.draining.Store(true)
	d.once.Do(func() {
		if d.onDrain != nil {
			go d.onDrain()
		}
	})
}

// Draining reports whether Drain has been called.
func (d *Drainer) Draining() bool { return d.draining.Load() }

// Refuse answers a generation request that arrives after Drain, and
// reports whether it did.
func (d *Drainer) Refuse(w http.ResponseWriter) bool {
	if !d.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", d.retryAfter)
	WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "draining"})
	return true
}

// Routes registers GET /healthz (200 while ready, else 503 with the
// reason) and POST /v1/drain (202) on mux.
func (d *Drainer) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		status, msg := http.StatusOK, "ok"
		if d.draining.Load() {
			status, msg = http.StatusServiceUnavailable, "draining"
		} else if d.ready != nil {
			if ok, why := d.ready(); !ok {
				status, msg = http.StatusServiceUnavailable, "not ready: "+why
			}
		}
		w.WriteHeader(status)
		fmt.Fprintln(w, msg)
	})
	mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, r *http.Request) {
		d.Drain()
		WriteJSON(w, http.StatusAccepted, map[string]bool{"draining": true})
	})
}

// Exit is a front end binary's graceful exit. Its Shutdown is the onDrain
// hook New and router.New take, and Serve returns only once Shutdown has.
type Exit struct {
	hs      *http.Server
	timeout time.Duration
	leave   func(context.Context)
	done    chan struct{}
	err     error
}

// NewExit builds the exit path. timeout bounds the wait for in-flight
// requests. leave, if non-nil, runs first under a 2 s deadline: it is the
// worker's deregistration, a courtesy (a router also drops a worker whose
// lease lapses) that must not hold up the drain for long.
func NewExit(timeout time.Duration, leave func(context.Context)) *Exit {
	return &Exit{
		hs:      &http.Server{ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 120 * time.Second},
		timeout: timeout, leave: leave, done: make(chan struct{}),
	}
}

// Shutdown runs the leave step, then http.Server.Shutdown, which waits up
// to the drain timeout for in-flight requests. The Drainer runs it once.
func (e *Exit) Shutdown() {
	defer close(e.done)
	if e.leave != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		e.leave(ctx)
		cancel()
	}
	ctx, cancel := context.WithTimeout(context.Background(), e.timeout)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		e.err = fmt.Errorf("httpapi: drain cut in-flight requests off after %s: %w", e.timeout, err)
	}
}

// Serve serves h on ln until h drains, through /v1/drain or because ctx
// ends. It returns once Shutdown has: nil when every in-flight request
// finished, an error when the drain timeout cut some off or the listener
// failed.
func (e *Exit) Serve(ctx context.Context, ln net.Listener, h interface {
	http.Handler
	Drain()
}) error {
	e.hs.Handler = h
	stop := context.AfterFunc(ctx, h.Drain)
	defer stop()
	if err := e.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-e.done
	return e.err
}
