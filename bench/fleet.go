package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/grammar"
	"repro/internal/httpapi"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/tokenizer"
	"repro/internal/transformer"
)

// warmupRequests is how many requests each set-up sends through the router
// before the timed section.
const warmupRequests = 50

// buildModel returns the served model: TinyEnglish word vocabulary over a
// randomly initialised transformer. Serving cost does not depend on weight
// values, so nothing is trained; the seed is fixed because the benchmark's
// seed drives the traffic, not the model.
func buildModel() *core.LLM {
	tok := tokenizer.NewWord(corpus.PCFGText(grammar.TinyEnglish(), 400, 10, mathx.NewRNG(1)))
	return &core.LLM{Tok: tok, Model: transformer.MustNew(transformer.Config{
		Vocab: tok.VocabSize(), Dim: 64, Layers: 2, Heads: 4, Window: 320,
		Pos: transformer.PosLearned, Act: nn.GELU,
	}, mathx.NewRNG(1))}
}

// vocab lists the model's ordinary words, the alphabet of every prompt.
var vocab = func() []string {
	tok := buildModel().Tok
	var words []string
	for id := tokenizer.NumSpecial; id < tok.VocabSize(); id++ {
		words = append(words, tok.Token(id))
	}
	return words
}()

// fleet is the system under test, self-hosted on loopback listeners: batching
// servers behind worker HTTP handlers behind one router.
type fleet struct {
	model      *core.LLM
	servers    []*serve.Server
	taps       []*tap
	workerURLs []string
	rt         *router.Router
	routerURL  string
	client     *http.Client
	// owner maps a session index to the worker its key hashes to.
	owner []int

	https []*http.Server
	wg    sync.WaitGroup
}

// tap sits between a worker's listener and its handler and, while counting,
// records which affinity keys reach that worker. The router forwards only
// the body, so that is where the key is read.
type tap struct {
	next     http.Handler
	counting atomic.Bool
	mu       sync.Mutex
	keyed    map[string]int
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if t.counting.Load() && r.URL.Path == "/v1/stream" {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		if _, rest, ok := bytes.Cut(body, []byte(`"session":"`)); ok {
			key, _, _ := bytes.Cut(rest, []byte(`"`))
			t.mu.Lock()
			t.keyed[string(key)]++
			t.mu.Unlock()
		}
	}
	t.next.ServeHTTP(w, r)
}

// startFleet brings the whole tier up and waits until the router reports
// ready.
func startFleet(ctx context.Context, workers int) (*fleet, error) {
	f := &fleet{
		model: buildModel(),
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 256},
		},
	}
	for i := 0; i < workers; i++ {
		srv := serve.New(f.model, serve.Config{})
		f.servers = append(f.servers, srv)
		t := &tap{next: httpapi.New(srv, nil), keyed: map[string]int{}}
		url, err := f.listen(t)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.taps = append(f.taps, t)
		f.workerURLs = append(f.workerURLs, url)
	}
	rt, err := router.New(router.Config{Backends: f.workerURLs}, nil)
	if err != nil {
		f.Close()
		return nil, err
	}
	f.rt = rt
	if f.routerURL, err = f.listen(rt); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.awaitReady(ctx); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.https = append(f.https, hs)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		hs.Serve(ln) // returns ErrServerClosed once Close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

func (f *fleet) awaitReady(ctx context.Context) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.routerURL+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := f.client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("router never became ready: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Close stops every listener, the router and the batching loops, and returns
// once their goroutines have ended.
func (f *fleet) Close() {
	for _, hs := range f.https {
		hs.Close()
	}
	if f.rt != nil {
		f.rt.Close()
	}
	for _, srv := range f.servers {
		srv.Close()
	}
	f.wg.Wait()
	f.client.CloseIdleConnections()
}

// balanceSessions picks the generator's affinity keys so that session s is
// owned by worker s mod workers. Worker URLs carry ephemeral ports and feed
// the router's ring hash, so fixed keys would split four prefixes 2/2 on one
// run and 4/0 on the next, doubling one worker's utilisation; choosing the
// keys by probing keeps the traffic the same on every run. A key's owner is
// read off the router's per-backend request counters after one tiny request.
func (f *fleet) balanceSessions(ctx context.Context, g *generator) error {
	f.owner = make([]int, len(g.sessionKeys))
	if len(f.servers) == 1 {
		return nil
	}
	probe := request{prompt: vocab[0], promptTokens: 1, maxTokens: 1, session: 0}
	candidate := 0
	for s := range g.sessionKeys {
		want := s % len(f.servers)
		for {
			if candidate > 64*len(g.sessionKeys) {
				return fmt.Errorf("no affinity key lands on worker %d", want)
			}
			g.sessionKeys[s] = fmt.Sprintf("k%d", candidate)
			candidate++
			probe.session = s
			before := f.rt.Stats().Backends
			if o := f.streamHTTP(ctx, f.routerURL, g.body(probe), time.Now()); o.status != statusOK {
				return fmt.Errorf("affinity probe failed: %v", o.status)
			}
			after := f.rt.Stats().Backends
			got := -1
			for i := range after {
				if after[i].Requests != before[i].Requests {
					got = f.workerIndex(after[i].Name)
				}
			}
			if got == want {
				break
			}
		}
		f.owner[s] = want
	}
	return nil
}

func (f *fleet) workerIndex(url string) int {
	for i, u := range f.workerURLs {
		if u == url {
			return i
		}
	}
	return -1
}

// warm sends the set-up's warm-up traffic through the router: requests from
// far down the same schedule, so lazy initialisation is paid before timing
// and a shared system prompt has been seen, as it would have been in
// production.
func (f *fleet) warm(ctx context.Context, g *generator) error {
	outs := closedLoop(ctx, g, 1<<30, warmupRequests, f.viaRouter(g))
	failed := 0
	for _, o := range outs {
		if o.status != statusOK {
			failed++
		}
	}
	if failed > 0 || len(outs) < warmupRequests {
		return fmt.Errorf("%d of %d warm-up requests failed", failed+warmupRequests-len(outs), warmupRequests)
	}
	return nil
}

// setUp is one complete set-up, the unit setup_s times: model build, fleet
// start, router readiness, affinity keys, warm-up.
func setUp(ctx context.Context, g *generator) (*fleet, time.Duration, error) {
	start := time.Now()
	f, err := startFleet(ctx, g.w.workers)
	if err != nil {
		return nil, 0, err
	}
	if err = f.balanceSessions(ctx, g); err == nil {
		err = f.warm(ctx, g)
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, time.Since(start), nil
}
