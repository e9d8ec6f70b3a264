// Package fleettest is the one self-hosted serving fleet the chaos scenarios
// and their tests stand on: batching servers behind worker HTTP handlers
// behind (optionally peered) routers, all on real loopback listeners in one
// process, with kill/restart handles that keep a node's address — its ring
// identity — stable, a seeded request driver whose request i is a pure
// function of i, and a bitwise comparison of two runs of that set. The
// scenarios (E24–E26: TestChaos, TestChurn and TestRouterHA in this
// package's tests, each at seeds 1–3) are a fleet shape, a failpoint plan, a
// director calling these handles, and a list of invariants on top.
package fleettest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
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
	"repro/internal/transformer"
)

const (
	// Conns is the driver's client concurrency.
	Conns = 8
	// Tokens is the generation budget of every driven request.
	Tokens = 16
	// window is the transformer fleet's context: the preamble's two prefix-
	// cache blocks, a tail, the budget, and room to spare.
	window = 96
	// Lease and Heartbeat are the registration cadence of joined workers;
	// scenarios whose routers govern liveness by lease set DefaultLease to
	// Lease.
	Lease     = 250 * time.Millisecond
	Heartbeat = 60 * time.Millisecond
	// SettleBound bounds WaitIdle.
	SettleBound = 10 * time.Second
)

// preamble opens every driven prompt: 34 TinyEnglish words, so with or
// without a leading special token the first two 16-position prefix-cache
// blocks are the same on every request. A worker publishes them on their
// second sighting and restores them from then on, which is how a faulted
// phase comes to run on restored blocks and recycled KV buffers.
const preamble = "the old king greets the young queen near the castle " +
	"a wise woman sees the royal prince in the garden " +
	"bob loves the cat alice rules a dog the man waits the princess sleeps"

// tails are the short per-index prompt endings.
var tails = []string{"the king", "a queen sees", "alice greets the", "the old dog", "bob"}

// strategies are the sampling modes driven requests cycle through, so the
// bitwise checks cover stochastic decoding too.
var strategies = []string{"greedy", "temp", "topk", "topp"}

// Request returns driven request i: a pure function of i, so any two runs
// drive the same set by construction.
func Request(i int) httpapi.GenRequest {
	req := httpapi.GenRequest{
		Prompt: preamble + " " + tails[i%len(tails)], Tokens: Tokens, Seed: uint64(i + 1),
		Strategy: strategies[i%len(strategies)],
	}
	if i%3 == 0 {
		req.Session = fmt.Sprintf("sess-%d", i%7)
	}
	return req
}

// Fleet owns the workers and routers started through it and the failpoint
// plans armed through it. A fleet and its handles are for one goroutine at a
// time: a scenario's director may use them while the owner is blocked in
// Drive, which touches nothing but Client.
type Fleet struct {
	// Client issues every driven request; its timeout means no request can
	// hang a run.
	Client *http.Client
	// Workers lists every worker added so far, killed ones included.
	Workers []*Worker

	model   *core.LLM
	cfg     serve.Config
	routers []*Router
	fired   map[string]uint64
}

// New returns an empty fleet whose workers serve model under cfg. Any plan
// left armed is disarmed first: a fleet starts fault-free.
func New(model *core.LLM, cfg serve.Config) *Fleet {
	failpoint.Disarm()
	return &Fleet{
		Client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: Conns + 4},
		},
		model: model, cfg: cfg,
	}
}

// NewTransformer trains the small transformer the chaos scenarios share,
// and returns a fleet whose workers run the batched path with chunked
// prefill, so every serve-loop failpoint site (prefill, step, sample) sees
// traffic.
func NewTransformer(seed uint64) (*Fleet, error) {
	lines := corpus.PCFGText(grammar.TinyEnglish(), 200, 8, mathx.NewRNG(seed))
	model, _, err := core.Train(lines, core.Config{
		Tokenizer: core.WordTok,
		Model: transformer.Config{
			Dim: 16, Layers: 1, Heads: 2, Window: window,
			Pos: transformer.PosLearned, Act: nn.GELU,
		},
		Steps: 30, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return New(model, serve.Config{MaxBatch: 4, PrefillChunk: 4}), nil
}

// Close disarms any armed plan and kills every node.
func (f *Fleet) Close() {
	f.Disarm()
	for _, w := range f.Workers {
		w.Kill()
	}
	for _, r := range f.routers {
		r.Kill()
	}
}

// ---- nodes ----

// serveOn serves h on ln until the returned server is closed.
func serveOn(ln net.Listener, h http.Handler) *http.Server {
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return hs
}

// Worker is one llm-serve stack: a batching server, its HTTP handler on a
// fixed address, and — when it was added with routers — the join loop
// keeping its leases alive.
type Worker struct {
	// Base is the worker's URL, stable across Kill and Restart.
	Base string

	f       *Fleet
	addr    string
	routers []string
	srv     *serve.Server
	hs      *http.Server // nil while killed
	joiner  *httpapi.Joiner
	hits    uint64 // prefix hits of earlier incarnations
}

// AddWorker starts a worker on a fresh loopback port. With routers it
// registers with and heartbeats each of them through the real join loop;
// with none it is a static member for a router's Backends list.
func (f *Fleet) AddWorker(routers ...*Router) (*Worker, error) {
	w := &Worker{f: f, addr: "127.0.0.1:0"}
	for _, r := range routers {
		w.routers = append(w.routers, r.Base)
	}
	if err := w.Restart(); err != nil {
		return nil, err
	}
	f.Workers = append(f.Workers, w)
	return w, nil
}

// Restart brings a killed worker back on its old address with a fresh
// batching server and join loop.
func (w *Worker) Restart() error {
	ln, err := net.Listen("tcp", w.addr)
	if err != nil {
		return err
	}
	w.addr = ln.Addr().String()
	w.Base = "http://" + w.addr
	w.srv = serve.New(w.f.model, w.f.cfg)
	w.hs = serveOn(ln, httpapi.New(w.srv, nil))
	if len(w.routers) > 0 {
		w.joiner, err = httpapi.StartJoiner(httpapi.JoinConfig{
			Routers: w.routers, Self: w.Base, Lease: Lease, Interval: Heartbeat,
		})
		if err != nil {
			w.Kill()
		}
	}
	return err
}

// Kill is the ungraceful death: heartbeats stop without deregistering (a
// router can only notice by lease expiry or probing), connections are
// severed, the batching loop dies.
func (w *Worker) Kill() {
	if w.hs == nil {
		return
	}
	if w.joiner != nil {
		w.joiner.Stop()
	}
	w.hs.Close()
	w.hs = nil
	w.srv.Close()
	w.hits += w.srv.Stats().PrefixHits
}

// Leave deregisters the worker from its routers; it keeps serving whatever
// is still in flight on it.
func (w *Worker) Leave(ctx context.Context) error { return w.joiner.Leave(ctx) }

// Stats snapshots the current (or, once killed, the last) batching server.
func (w *Worker) Stats() serve.Stats { return w.srv.Stats() }

// Router is one llm-router on a fixed address.
type Router struct {
	// Base is the router's URL, stable across Kill and Restart.
	Base string

	cfg router.Config
	rt  *router.Router
	hs  *http.Server // nil while killed
}

// StartRouters starts n routers under cfg. With n > 1 they are peered: each
// one's Peers is the others' URLs, which is why every address is bound
// before any router starts.
func (f *Fleet) StartRouters(n int, cfg router.Config) ([]*Router, error) {
	lns := make([]net.Listener, n)
	out := make([]*Router, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i], out[i] = ln, &Router{Base: "http://" + ln.Addr().String(), cfg: cfg}
	}
	f.routers = append(f.routers, out...) // Close reaps the ones that started
	for i, r := range out {
		r.cfg.Peers = nil
		for j, peer := range out {
			if j != i {
				r.cfg.Peers = append(r.cfg.Peers, peer.Base)
			}
		}
		if err := r.start(lns[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *Router) start(ln net.Listener) error {
	rt, err := router.New(r.cfg, nil)
	if err != nil {
		ln.Close()
		return err
	}
	r.rt, r.hs = rt, serveOn(ln, rt)
	return nil
}

// Kill is the ungraceful router death: connections severed, loops stopped,
// no drain, no goodbye to peers or workers.
func (r *Router) Kill() {
	if r.hs == nil {
		return
	}
	r.hs.Close()
	r.hs = nil
	r.rt.Close()
}

// Restart brings a killed router back on its old address, empty: it relearns
// the fleet from worker heartbeats and its peers.
func (r *Router) Restart() error {
	ln, err := net.Listen("tcp", strings.TrimPrefix(r.Base, "http://"))
	if err != nil {
		return err
	}
	return r.start(ln)
}

// Stats snapshots the current (or, once killed, the last) router.
func (r *Router) Stats() router.Stats { return r.rt.Stats() }

// Healthy reports whether the router currently routes to the member at base.
func (r *Router) Healthy(base string) bool {
	for _, b := range r.Stats().Backends {
		if b.Name == base {
			return b.Healthy
		}
	}
	return false
}

// Converged reports whether every router holds exactly members members, all
// healthy, under one ring digest — the tier agrees on placement.
func Converged(members int, routers ...*Router) bool {
	digest := routers[0].Stats().RingDigest
	for _, r := range routers {
		st := r.Stats()
		if st.Members != members || st.RingDigest != digest {
			return false
		}
		for _, b := range st.Backends {
			if !b.Healthy {
				return false
			}
		}
	}
	return true
}

// ---- waiting ----

// WaitUntil polls cond until it holds or bound has passed.
func WaitUntil(what string, bound time.Duration, cond func() bool) error {
	deadline := time.Now().Add(bound)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %s waiting for %s", bound, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// WaitIdle waits until every live worker has reconciled — every accepted
// request reached a terminal counter and nothing is queued — the worker-side
// half of "no lost requests".
func (f *Fleet) WaitIdle() error {
	for _, w := range f.Workers {
		var st serve.Stats
		err := WaitUntil("reconciliation", SettleBound, func() bool {
			st = w.Stats()
			return w.hs == nil || (st.Queued == 0 && st.Requests == st.Completed+st.Cancelled+st.Failed)
		})
		if err != nil {
			return fmt.Errorf("lost requests: worker %s never reconciled: %+v", w.Base, st)
		}
	}
	return nil
}

// PrefixHits sums prefix_hits over the live workers, across their restarts.
func (f *Fleet) PrefixHits() uint64 {
	var n uint64
	for _, w := range f.Workers {
		if w.hs != nil {
			n += w.hits + w.Stats().PrefixHits
		}
	}
	return n
}

// ---- faults ----

// Arm installs plan. Arming replaces the previous plan and resets its
// counters, so fire counts are banked at every transition.
func (f *Fleet) Arm(plan failpoint.Plan) error {
	f.fired, _ = f.Fired()
	return failpoint.Arm(plan)
}

// Disarm banks the armed plan's fire counts and removes it.
func (f *Fleet) Disarm() {
	f.fired, _ = f.Fired()
	failpoint.Disarm()
}

// Fired returns the faults fired per site that saw traffic, over every plan
// armed through the fleet so far, and their total.
func (f *Fleet) Fired() (bySite map[string]uint64, total uint64) {
	bySite = map[string]uint64{}
	for site, n := range f.fired {
		bySite[site] = n
	}
	for site, st := range failpoint.Stats() {
		bySite[site] += st.Fired
	}
	for _, n := range bySite {
		total += n
	}
	return bySite, total
}

// ---- driving ----

// Outcome classifies one request's terminal outcome as the client saw it.
// Every driven request must land in exactly one of OK, Failed and Severed;
// the zero value marks an index that never got one.
type Outcome int

const (
	Lost    Outcome = iota // no terminal outcome recorded
	OK                     // 200 with a completion
	Failed                 // an HTTP error status (500, 502, 504, ...)
	Severed                // transport error: a dropped connection
)

// Result is one driven request's observation.
type Result struct {
	Outcome    Outcome
	Status     int
	Completion string
}

// Post drives one POST /v1/generate against base and classifies its outcome.
func (f *Fleet) Post(base string, req httpapi.GenRequest) Result {
	body, err := json.Marshal(req)
	if err != nil {
		return Result{Outcome: Failed}
	}
	resp, err := f.Client.Post(base+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		return Result{Outcome: Severed}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Result{Outcome: Failed, Status: resp.StatusCode}
	}
	var out httpapi.GenResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return Result{Outcome: Severed, Status: resp.StatusCode}
	}
	return Result{Outcome: OK, Status: resp.StatusCode, Completion: out.Completion}
}

// Drive issues Request(0..n-1) through Conns concurrent clients and returns
// every terminal outcome by index. A non-zero pace spreads the starts —
// request i is not issued before i*pace — so a run spans a director's
// schedule instead of racing past it. mutate, when non-nil, edits request i
// before it is sent. bases are the front doors: request i prefers
// bases[i%len], so all of them carry traffic. With one base a request gets
// one attempt and its failure is the outcome; with several it fails over on
// a severed connection or a refusal, two passes over the list — enough to
// ride out one door being down plus a transient refusal at the survivor —
// and failovers counts the requests that needed more than their preferred
// door.
func (f *Fleet) Drive(bases []string, n int, pace time.Duration, mutate func(i int, req *httpapi.GenRequest)) (results []Result, failovers int) {
	attempts := 1
	if len(bases) > 1 {
		attempts = 2 * len(bases)
	}
	results = make([]Result, n)
	var next, nFailover atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < Conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				time.Sleep(time.Until(start.Add(time.Duration(i) * pace)))
				req := Request(i)
				if mutate != nil {
					mutate(i, &req)
				}
				for attempt := 0; attempt < attempts; attempt++ {
					if attempt > 0 {
						time.Sleep(10 * time.Millisecond)
					}
					results[i] = f.Post(bases[(i+attempt)%len(bases)], req)
					if results[i].Outcome == OK {
						if attempt > 0 {
							nFailover.Add(1)
						}
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	return results, int(nFailover.Load())
}

// Tally is Compare's verdict on one run against its baseline.
type Tally struct {
	OK, Failed, Severed int
	// Lost lists indices with no terminal outcome (or missing from the run).
	Lost []int
	// Mismatched lists OK indices whose completion differs from the
	// baseline's — survivors that are not bitwise intact.
	Mismatched []int
}

// Compare tallies run's outcomes and checks every completion that succeeded
// against the baseline run of the same request set.
func Compare(baseline, run []Result) Tally {
	var t Tally
	for i := range baseline {
		if i >= len(run) {
			t.Lost = append(t.Lost, i)
			continue
		}
		switch run[i].Outcome {
		case OK:
			t.OK++
			if run[i].Completion != baseline[i].Completion {
				t.Mismatched = append(t.Mismatched, i)
			}
		case Failed:
			t.Failed++
		case Severed:
			t.Severed++
		default:
			t.Lost = append(t.Lost, i)
		}
	}
	return t
}
