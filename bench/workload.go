package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/httpapi"
	"repro/internal/mathx"
	"repro/internal/sample"
	"repro/internal/serve"
)

// clients is the closed-loop concurrency: serve.Config.MaxBatch defaults to
// 8, and fewer streams cannot fill a decode batch.
const clients = 8

// prefixTokens is the length of a shared_prefix system prompt, a whole
// number of shareBlock-token blocks.
const (
	prefixTokens = 192
	shareBlock   = 16
)

// workload is one traffic mix. Rates, client counts, shapes and latency
// limits are frozen constants: every commit is measured against the same
// traffic.
type workload struct {
	name    string
	workers int
	// rate is the open-loop arrival rate in requests per second, evenly
	// spaced; 0 selects a closed loop of `clients` back-to-back clients.
	rate float64
	// sessions is how many distinct affinity keys the generator uses.
	sessions int
	// traced is how many requests each section of the traced run replays per
	// second of -seconds: a fixed count, whatever the commit's speed, sized so
	// that a section takes about a quarter of -seconds today.
	traced int
	// ttftLimit and tpotLimit are the latency limits behind slo_frac, set
	// once at about three times the baseline p95.
	ttftLimit, tpotLimit time.Duration
	// shape draws request i's prompt and budget from its private RNG.
	shape func(g *generator, i int, rng *mathx.RNG) request
}

// request is one generated /v1/stream call.
type request struct {
	id           int
	prompt       string
	promptTokens int
	maxTokens    int
	session      int // index into generator.sessionKeys; -1 = unkeyed
}

// workloads is the benchmark of record's traffic, in reporting order.
var workloads = []workload{
	{
		// Decode does ~95 % of the work and prefill almost none.
		name: "decode_heavy", workers: 1, traced: 100,
		ttftLimit: 25 * time.Millisecond, tpotLimit: 2 * time.Millisecond,
		shape: func(g *generator, i int, rng *mathx.RNG) request {
			return g.request(i, rng, -1, nil, 8, 64)
		},
	},
	{
		// Unique long prompts, four output tokens: prefill chunks do the
		// work. Also the no-sharing control for any prefix cache.
		name: "prefill_heavy", workers: 1, traced: 30,
		ttftLimit: 300 * time.Millisecond, tpotLimit: 10 * time.Millisecond,
		shape: func(g *generator, i int, rng *mathx.RNG) request {
			return g.request(i, rng, -1, nil, 224+rng.Intn(65), 4)
		},
	},
	{
		// prefill_heavy's length distribution, but the first 192 tokens are
		// one of four system prompts and the request is keyed to it.
		name: "shared_prefix", workers: 2, rate: 60, sessions: 4, traced: 15,
		ttftLimit: 50 * time.Millisecond, tpotLimit: 10 * time.Millisecond,
		shape: func(g *generator, i int, rng *mathx.RNG) request {
			p := rng.Intn(len(g.prefixes))
			return g.request(i, rng, p, g.prefixes[p], 224+rng.Intn(65), 4)
		},
	},
	{
		// 80 % chat and 20 % long-prompt requests share one batch loop;
		// half are keyed to 64 sessions, half go to the least-loaded worker.
		name: "mixed_open", workers: 2, rate: 100, sessions: 64, traced: 25,
		ttftLimit: 50 * time.Millisecond, tpotLimit: 5 * time.Millisecond,
		shape: func(g *generator, i int, rng *mathx.RNG) request {
			session := -1
			if rng.Intn(2) == 0 {
				session = rng.Intn(64)
			}
			if rng.Intn(5) == 0 {
				return g.request(i, rng, session, nil, 192+rng.Intn(65), 8)
			}
			return g.request(i, rng, session, nil, 8+rng.Intn(9), 32)
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// generator turns (seed, request index) into a request. Every request draws
// from its own RNG, so request i is the same whether a closed loop reaches it
// early or late, and a schedule of any length is a prefix of a longer one.
type generator struct {
	w    workload
	seed uint64
	// prefixes are the shared_prefix system prompts, drawn from the seed.
	prefixes [][]string
	// sessionKeys maps a session index to the affinity key sent on the
	// wire; the fleet chooses keys at set-up (see fleet.balanceSessions).
	sessionKeys []string
}

func newGenerator(w workload, seed uint64) *generator {
	g := &generator{w: w, seed: seed}
	if w.name == "shared_prefix" {
		rng := mathx.NewRNG(seed ^ 0x5a17ed)
		g.prefixes = make([][]string, w.sessions)
		for p := range g.prefixes {
			g.prefixes[p] = randomWords(rng, prefixTokens)
		}
	}
	g.sessionKeys = make([]string, w.sessions)
	for s := range g.sessionKeys {
		g.sessionKeys[s] = fmt.Sprintf("s%d", s)
	}
	return g
}

func randomWords(rng *mathx.RNG, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = vocab[rng.Intn(len(vocab))]
	}
	return out
}

// at returns request i of the schedule.
func (g *generator) at(i int) request {
	return g.w.shape(g, i, mathx.NewRNG(g.seed*0x9e3779b97f4a7c15+uint64(i)))
}

func (g *generator) request(i int, rng *mathx.RNG, session int, prefix []string, promptTokens, maxTokens int) request {
	words := append(append([]string(nil), prefix...), randomWords(rng, promptTokens-len(prefix))...)
	return request{
		id: i, prompt: strings.Join(words, " "), promptTokens: promptTokens,
		maxTokens: maxTokens, session: session,
	}
}

// topK reports whether request r samples top-k(8, T 0.8) rather than greedy:
// the two alternate, so both sampling paths run on every workload.
func (r request) topK() bool { return r.id%2 == 1 }

// body is the /v1/stream JSON for r.
func (g *generator) body(r request) []byte {
	gr := httpapi.GenRequest{Prompt: r.prompt, Tokens: r.maxTokens, Seed: uint64(r.id)}
	if r.topK() {
		gr.Strategy, gr.TopK, gr.Temperature = "topk", 8, 0.8
	}
	if r.session >= 0 {
		gr.Session = g.sessionKeys[r.session]
	}
	b, err := json.Marshal(gr)
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return b
}

// serveRequest is r as the batching server takes it, and options is r as
// lm.Gen takes it: the three must describe the same generation.
func (r request) serveRequest() serve.Request {
	return serve.NewRequest(r.prompt, r.options()...)
}

func (r request) options() []sample.Option {
	opts := []sample.Option{sample.WithMaxTokens(r.maxTokens), sample.WithSeed(uint64(r.id))}
	if r.topK() {
		opts = append(opts, sample.WithStrategy(sample.TopK{K: 8, T: 0.8}))
	}
	return opts
}

// shareableFrac is the share of the first n requests' prompt tokens that lie
// in whole shareBlock-token blocks repeating the prefix of an earlier
// request: what a block-granular prefix cache could at best skip.
func (g *generator) shareableFrac(n int) float64 {
	seen := map[string]bool{}
	var shared, total int
	for i := 0; i < n; i++ {
		r := g.at(i)
		total += r.promptTokens
		words := strings.Fields(r.prompt)
		hit := true
		for end := shareBlock; end <= len(words); end += shareBlock {
			key := strings.Join(words[:end], " ")
			if hit && seen[key] {
				shared += shareBlock
			} else {
				hit = false
				seen[key] = true
			}
		}
	}
	return float64(shared) / float64(total)
}
