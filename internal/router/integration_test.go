package router

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/grammar"
	"repro/internal/httpapi"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tokenizer"
	"repro/internal/transformer"
)

// workerModel is an untrained TinyEnglish transformer for the real worker
// stacks. Serving does not depend on weight values, so nothing is trained.
func workerModel() *core.LLM {
	tok := tokenizer.NewWord(corpus.PCFGText(grammar.TinyEnglish(), 80, 8, mathx.NewRNG(7)))
	return &core.LLM{Tok: tok, Model: transformer.MustNew(transformer.Config{
		Vocab: tok.VocabSize(), Dim: 16, Layers: 1, Heads: 2, Window: 16,
		Pos: transformer.PosLearned, Act: nn.GELU,
	}, mathx.NewRNG(2))}
}

// TestRouterOverRealWorkers runs the whole tier for real: two llm-serve
// worker stacks (serve.Server + httpapi.Handler) behind one router, mixed
// keyed generate/stream traffic. It pins the end-to-end contract: every
// request succeeds, streamed pieces concatenate to the generate completion
// for the same request, and each session's traffic lands wholly on its ring
// owner (checked against the workers' own request counters).
func TestRouterOverRealWorkers(t *testing.T) {
	m := workerModel()

	const nWorkers = 2
	srvs := make([]*serve.Server, nWorkers)
	urls := make([]string, nWorkers)
	for i := range srvs {
		srvs[i] = serve.New(m, serve.Config{})
		t.Cleanup(srvs[i].Close)
		ts := httptest.NewServer(httpapi.New(srvs[i], nil))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	rt, err := New(Config{Backends: urls}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	// Pick sessions until both workers own at least one, so the affinity
	// accounting below cannot pass vacuously.
	ring := newRing(urls)
	var sessions []string
	owner := map[string]int{}
	owned := make([]int, nWorkers)
	for s := 0; len(sessions) < 4 || owned[0] == 0 || owned[1] == 0; s++ {
		key := fmt.Sprintf("tenant-%d", s)
		sessions = append(sessions, key)
		owner[key] = ring.successors(key)[0]
		owned[owner[key]]++
	}

	const perSession = 3 // generate+stream pairs per session
	var wg sync.WaitGroup
	errs := make(chan error, len(sessions)*perSession)
	for _, session := range sessions {
		for rep := 0; rep < perSession; rep++ {
			wg.Add(1)
			go func(session string, rep int) {
				defer wg.Done()
				errs <- runPair(front.URL, session, rep)
			}(session, rep)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Affinity accounting: each worker served exactly its sessions' requests.
	want := make([]uint64, nWorkers)
	for _, session := range sessions {
		want[owner[session]] += 2 * perSession
	}
	for i, srv := range srvs {
		if got := srv.Stats().Requests; got != want[i] {
			t.Errorf("worker %d served %d requests, ring assigns it %d", i, got, want[i])
		}
	}
	st := rt.Stats()
	if wantTotal := uint64(2 * perSession * len(sessions)); st.Proxied != wantTotal {
		t.Errorf("router proxied %d, want %d", st.Proxied, wantTotal)
	}
	if st.Retries != 0 || st.Errors != 0 || st.Shed != 0 {
		t.Errorf("healthy-fleet run recorded retries/errors/shed: %+v", st)
	}
}

// TestStreamFailsOverBeforeFirstToken: a keyed stream whose ring owner
// cannot serve it (its serve.Server is closed, its HTTP front still up) is
// answered 503 before any byte is sent, so the router retries it on the
// next replica and the client sees one clean stream.
func TestStreamFailsOverBeforeFirstToken(t *testing.T) {
	m := workerModel()
	srvs := make([]*serve.Server, 2)
	urls := make([]string, 2)
	for i := range srvs {
		srvs[i] = serve.New(m, serve.Config{})
		t.Cleanup(srvs[i].Close)
		ts := httptest.NewServer(httpapi.New(srvs[i], nil))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	rt, err := New(Config{Backends: urls}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	const session = "tenant-0"
	owner := newRing(urls).successors(session)[0]
	srvs[owner].Close()

	data, err := json.Marshal(httpapi.GenRequest{Prompt: "the king", Tokens: 6, Seed: 1, Session: session})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(front.URL+"/v1/stream", "application/json", strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d, want 200 from the other replica", resp.StatusCode)
	}
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		payload, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "data: ")
		if !ok {
			continue
		}
		var probe struct {
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(payload), &probe); err != nil {
			t.Fatalf("bad frame %q: %v", payload, err)
		}
		if probe.Error != "" {
			t.Fatalf("in-band stream error %q", probe.Error)
		}
		sawDone = sawDone || probe.Done
	}
	if !sawDone {
		t.Fatal("stream ended without a done frame")
	}
	if st := rt.Stats(); st.Retries != 1 {
		t.Errorf("router retries %d, want 1", st.Retries)
	}
	if got := srvs[1-owner].Stats().Completed; got != 1 {
		t.Errorf("the other replica completed %d requests, want 1", got)
	}
}

// runPair issues one generate and one stream for the same request through
// the router and checks they agree.
func runPair(frontURL, session string, rep int) error {
	req := httpapi.GenRequest{
		Prompt:  "the king",
		Tokens:  6,
		Seed:    uint64(rep + 1),
		Session: session,
	}
	data, err := json.Marshal(req)
	if err != nil {
		return err
	}

	resp, err := http.Post(frontURL+"/v1/generate", "application/json", strings.NewReader(string(data)))
	if err != nil {
		return fmt.Errorf("session %s: generate: %w", session, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("session %s: generate status %d", session, resp.StatusCode)
	}
	var gen httpapi.GenResponse
	if err := json.NewDecoder(resp.Body).Decode(&gen); err != nil {
		return err
	}
	if gen.Completion == "" {
		return fmt.Errorf("session %s: empty completion", session)
	}

	sresp, err := http.Post(frontURL+"/v1/stream", "application/json", strings.NewReader(string(data)))
	if err != nil {
		return fmt.Errorf("session %s: stream: %w", session, err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != 200 {
		return fmt.Errorf("session %s: stream status %d", session, sresp.StatusCode)
	}
	var pieces []string
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		payload, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "data: ")
		if !ok {
			continue
		}
		var probe struct {
			Done       bool   `json:"done"`
			Completion string `json:"completion"`
			Text       string `json:"text"`
			Error      string `json:"error"`
		}
		if err := json.Unmarshal([]byte(payload), &probe); err != nil {
			return fmt.Errorf("session %s: bad frame %q: %w", session, payload, err)
		}
		if probe.Error != "" {
			return fmt.Errorf("session %s: in-band stream error %q", session, probe.Error)
		}
		if probe.Done {
			if joined := strings.Join(pieces, ""); joined != probe.Completion || probe.Completion != gen.Completion {
				return fmt.Errorf("session %s: stream %q / done %q / generate %q disagree",
					session, joined, probe.Completion, gen.Completion)
			}
			return nil
		}
		pieces = append(pieces, probe.Text)
	}
	return fmt.Errorf("session %s: stream ended without a done frame", session)
}
