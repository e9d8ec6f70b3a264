package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/sample"
)

// span is one traced interval. The spans of a request share its id; parent
// is empty on the root span.
type span struct {
	Workload string  `json:"workload"`
	Depth    string  `json:"depth"`
	Request  int     `json:"request"`
	Name     string  `json:"name"`
	Parent   string  `json:"parent,omitempty"`
	StartMS  float64 `json:"start_ms"` // since the section began
	EndMS    float64 `json:"end_ms"`
}

// spansOf records a successful request as a root span with two children:
// first_token (due/dispatch to first token frame) and stream (first token
// frame to done frame).
func spansOf(w workload, depth string, begin time.Time, o outcome) []span {
	at := func(t time.Time) float64 { return ms(t.Sub(begin)) }
	s := span{Workload: w.name, Depth: depth, Request: o.id}
	root, first, stream := s, s, s
	root.Name, root.StartMS, root.EndMS = "request", at(o.start), at(o.end)
	first.Name, first.Parent, first.StartMS, first.EndMS = "first_token", "request", at(o.start), at(o.first)
	stream.Name, stream.Parent, stream.StartMS, stream.EndMS = "stream", "request", at(o.first), at(o.end)
	return []span{root, first, stream}
}

func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+name+".jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timeOp returns the median, over rounds, of the mean time of one of iters
// consecutive calls of op.
func timeOp(rounds, iters int, op func()) time.Duration {
	means := make([]float64, rounds)
	for r := range means {
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		means[r] = float64(time.Since(start)) / float64(iters)
	}
	return time.Duration(median(means))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sink keeps the compiler from discarding a timed call's result.
var sink float64

// directTimings times calls into the public functions of the layers below
// serve, at the shapes the workloads produce, on an otherwise idle process.
func directTimings(model *core.LLM, m map[string]metric) {
	cfg := model.Model.Cfg
	rng := mathx.NewRNG(7)
	randomIDs := func(n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = 4 + rng.Intn(cfg.Vocab-4)
		}
		return ids
	}

	// Decode step at context 40 (decode_heavy's mean), alone and in a full
	// batch. Rewinding the one new position keeps the context fixed.
	bp := model.Model.NewBatchedPredictor()
	for _, batch := range []int{1, 8} {
		ids := make([]int, batch)
		for i := range ids {
			ids[i] = bp.Add()
			bp.Prefill(ids[i], randomIDs(40))
		}
		toks := randomIDs(batch)
		d := timeOp(9, 50, func() {
			sink += bp.Step(ids, toks)[0][0]
			for _, id := range ids {
				bp.Rewind(id, 1)
			}
		})
		m[fmt.Sprintf("transformer.step_us_b%d", batch)] = metric{us(d), "us"}
		for _, id := range ids {
			bp.Drop(id)
		}
	}

	// Prefill of a 256-token prompt in the server's 32-token chunks.
	prompt := randomIDs(256)
	d := timeOp(9, 4, func() {
		id := bp.Add()
		for at := 0; at < len(prompt); at += 32 {
			sink += bp.Prefill(id, prompt[at:at+32])[0]
		}
		bp.Drop(id)
	})
	m["transformer.prefill_us_per_tok"] = metric{us(d) / 256, "us"}

	// Add preallocates the sequence's whole-window KV cache.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d = timeOp(9, 16, func() { bp.Drop(bp.Add()) })
	runtime.ReadMemStats(&after)
	m["transformer.add_us"] = metric{us(d), "us"}
	m["transformer.kv_alloc_kb_per_seq"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / (9 * 16) / 1024, "KiB"}

	// Computed from tensor shapes, not measured: f64 matrix weights streamed
	// by one decode step, and multiply-adds per token at context 40.
	hidden := cfg.Hidden
	if hidden == 0 {
		hidden = 4 * cfg.Dim
	}
	weights := cfg.Layers*(4*cfg.Dim*cfg.Dim+2*cfg.Dim*hidden) + cfg.Dim*cfg.Vocab
	m["transformer.weight_bytes_per_step"] = metric{float64(8 * weights), "B"}
	m["transformer.flops_per_tok"] = metric{float64(2*weights + cfg.Layers*4*cfg.Dim*40), "count"}

	// The batched-decode kernel on one 16-row block of a Dim-wide projection.
	var d0, d1, d2, d3 [16]float64
	wts := make([]float64, 16*cfg.Dim)
	xs := make([][]float64, 4)
	for i := range xs {
		xs[i] = make([]float64, cfg.Dim)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()
		}
	}
	for i := range wts {
		wts[i] = rng.Float64()
	}
	d = timeOp(9, 20000, func() { mathx.DotInterleaved16X4(&d0, &d1, &d2, &d3, wts, xs[0], xs[1], xs[2], xs[3]) })
	sink += d0[0]
	m["mathx.dot16x4_ns"] = metric{float64(d), "ns"}

	// One sampled token from vocabulary-wide logits.
	logits := make([]float64, cfg.Vocab)
	for i := range logits {
		logits[i] = rng.Norm()
	}
	for name, strat := range map[string]sample.Strategy{
		"sample.next_ns_greedy": sample.Greedy{},
		"sample.next_ns_topk":   sample.TopK{K: 8, T: 0.8},
	} {
		const iters = 20000
		d := timeOp(9, 1, func() {
			dec := sample.NewDecoder(strat, -1, iters, mathx.NewRNG(1))
			for i := 0; i < iters; i++ {
				tok, _ := dec.Next(logits)
				sink += float64(tok)
			}
		})
		m[name] = metric{float64(d) / iters, "ns"}
	}

	// Tokenising a 256-word prompt.
	text := strings.Join(randomWords(rng, 256), " ")
	d = timeOp(9, 50, func() {
		ids, _ := model.EncodePrompt(text, 4)
		sink += float64(len(ids))
	})
	m["core.encode_us_per_prompt"] = metric{us(d), "us"}
}

// counters are the serve.Stats counters the breakdown uses, summed over the
// workers; maxBatch is the largest and chunks the number of prefill passes.
type counters struct {
	steps, stepRows, promptTokens, decodeTokens, chunks uint64
	maxBatch                                            int
}

func (f *fleet) counters() counters {
	var c counters
	for _, srv := range f.servers {
		st := srv.Stats()
		c.steps += st.Steps
		c.stepRows += st.StepRows
		c.promptTokens += st.PromptTokens
		c.decodeTokens += st.DecodeTokens
		c.maxBatch = max(c.maxBatch, st.MaxBatch)
		for _, n := range st.PrefillChunkHist {
			c.chunks += n
		}
	}
	return c
}

// minTraced is the fewest requests a traced section replays: four sections of
// it give the p95 of the generator's lateness its ten samples beyond.
const minTraced = 64

// section is one driven part of the traced run.
type section struct {
	tally
	stats  counters // this section's share; maxBatch is since set-up
	allocs uint64   // bytes allocated by the process during the section
}

// sum adds the request counts of s to t.
func (t *tally) sum(s tally) {
	t.sent += s.sent
	t.ok += s.ok
	t.shed += s.shed
	t.errored += s.errored
	t.mismatched += s.mismatched
}

// runSection drives the first n requests of g's schedule through send,
// accounting the servers' counter deltas to the section, and records spans
// when depth is not empty.
func (f *fleet) runSection(ctx context.Context, g *generator, n int, depth string, send sender, cal *calibration, spans *[]span) section {
	cal.probe()
	before := f.counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	win := driveRange(ctx, g, 0, n, send)
	runtime.ReadMemStats(&m1)
	after := f.counters()
	wrong := verify(f.model, g, win.outs)
	s := section{tally: summarize(g.w, win.outs, win.wall, wrong), allocs: m1.TotalAlloc - m0.TotalAlloc}
	s.stats = counters{
		steps:        after.steps - before.steps,
		stepRows:     after.stepRows - before.stepRows,
		promptTokens: after.promptTokens - before.promptTokens,
		decodeTokens: after.decodeTokens - before.decodeTokens,
		chunks:       after.chunks - before.chunks,
		maxBatch:     after.maxBatch,
	}
	if depth != "" {
		for _, o := range win.outs {
			if o.status == statusOK && !wrong[o.id] {
				*spans = append(*spans, spansOf(g.w, depth, begin, o)...)
			}
		}
	}
	return s
}

// runTraced produces the per-layer metrics of one workload: direct timings
// of the lower layers, then the schedule replayed at three entry depths. A
// layer's self time is the difference between adjacent depths.
func runTraced(ctx context.Context, g *generator, dur time.Duration, outDir string) (map[string]metric, tally, error) {
	f, _, err := setUp(ctx, g)
	if err != nil {
		return nil, tally{}, err
	}
	defer f.Close()
	m := map[string]metric{}
	directTimings(f.model, m)

	// Every section replays the same n requests, on every commit: the counts
	// and the spans of two depths, or of two commits, describe the same work.
	n := max(minTraced, int(float64(g.w.traced)*dur.Seconds()))
	cal := &calibration{}
	var spans []span
	plain := f.runSection(ctx, g, n, "", f.viaRouter(g), cal, nil)
	atServe := f.runSection(ctx, g, n, "serve", f.viaServe, cal, &spans)
	atWorker := f.runSection(ctx, g, n, "httpapi", f.viaWorkers(g), cal, &spans)
	for _, t := range f.taps {
		t.counting.Store(true)
	}
	rtBefore := f.rt.Stats()
	atRouter := f.runSection(ctx, g, n, "router", f.viaRouter(g), cal, &spans)
	rtAfter := f.rt.Stats()
	if err := ctx.Err(); err != nil {
		return nil, tally{}, err
	}
	for _, s := range []section{plain, atServe, atWorker, atRouter} {
		if len(s.tpot) == 0 {
			return nil, tally{}, fmt.Errorf("a traced section completed no multi-token request: %s", s.tally)
		}
	}
	if err := writeSpans(outDir, g.w.name, spans); err != nil {
		return nil, tally{}, err
	}

	// serve: the schedule driven straight into Server.Stream.
	m["serve.ttft_p50_ms"] = metric{median(atServe.ttft), "ms"}
	m["serve.tpot_p50_ms"] = metric{median(atServe.tpot), "ms"}
	m["serve.tok_s"] = metric{float64(atServe.tokens) / atServe.wall.Seconds(), "1/s"}
	var promptTokens []float64
	var sentTokens, heldTokens int
	for i := 0; i < atRouter.sent; i++ {
		r := g.at(i)
		promptTokens = append(promptTokens, float64(r.promptTokens))
		sentTokens += r.promptTokens
		heldTokens += r.promptTokens + r.maxTokens
	}
	prefillMS := median(promptTokens) * m["transformer.prefill_us_per_tok"].Value / 1000
	m["serve.sched_self_ms"] = metric{median(atServe.ttft) - prefillMS, "ms"}
	m["serve.alloc_kb_per_req"] = metric{float64(atServe.allocs) / 1024 / float64(atServe.sent), "KiB"}

	// serve counters, from the router-depth section: the traffic as the
	// end-to-end run delivers it.
	st := atRouter.stats
	m["serve.mean_batch"] = metric{float64(st.stepRows) / float64(max(st.steps, 1)), "count"}
	m["serve.max_batch"] = metric{float64(st.maxBatch), "count"}
	m["serve.prefill_chunk_mean"] = metric{float64(st.promptTokens) / float64(max(st.chunks, 1)), "count"}
	m["serve.steps"] = metric{float64(st.steps), "count"}
	m["serve.prompt_tokens"] = metric{float64(st.promptTokens), "count"}
	m["serve.decode_tokens"] = metric{float64(st.decodeTokens), "count"}
	m["serve.prefill_ratio"] = metric{float64(st.promptTokens) / float64(sentTokens), "frac"}
	m["serve.shareable_frac"] = metric{g.shareableFrac(atRouter.sent), "frac"}
	m["serve.kv_used_frac"] = metric{float64(heldTokens) / float64(atRouter.sent) / float64(f.model.ContextWindow()), "frac"}

	// httpapi and router: what each adds over the depth below it.
	m["httpapi.self_ttft_ms"] = metric{median(atWorker.ttft) - median(atServe.ttft), "ms"}
	m["httpapi.self_us_per_tok"] = metric{(median(atWorker.tpot) - median(atServe.tpot)) * 1000, "us"}
	m["router.self_ttft_ms"] = metric{median(atRouter.ttft) - median(atWorker.ttft), "ms"}
	m["router.self_us_per_tok"] = metric{(median(atRouter.tpot) - median(atWorker.tpot)) * 1000, "us"}
	m["router.tpot_p50_ms"] = metric{median(atRouter.tpot), "ms"}
	m["router.retries"] = metric{float64(rtAfter.Retries - rtBefore.Retries), "count"}
	m["router.shed"] = metric{float64(rtAfter.Shed - rtBefore.Shed), "count"}
	lo, hi := ^uint64(0), uint64(0)
	for i, b := range rtAfter.Backends {
		n := b.Requests - rtBefore.Backends[i].Requests
		lo, hi = min(lo, n), max(hi, n)
	}
	m["router.balance_ratio"] = metric{float64(hi) / float64(max(lo, 1)), "ratio"}
	m["router.affinity_frac"] = metric{f.affinityFrac(g), "frac"}

	// The harness's own honesty checks: how late the open-loop generator
	// ran, and what recording spans and counting keys cost in throughput.
	late := 0.0
	if g.w.rate > 0 {
		var lates []float64
		for _, s := range []section{plain, atServe, atWorker, atRouter} {
			lates = append(lates, s.late...)
		}
		sort.Float64s(lates)
		if late, err = percentile(lates, 95); err != nil {
			return nil, tally{}, fmt.Errorf("bench.gen_late_p95_ms: %w", err)
		}
	}
	m["bench.gen_late_p95_ms"] = metric{late, "ms"}
	plainTokS := float64(plain.tokens) / plain.wall.Seconds()
	tracedTokS := float64(atRouter.tokens) / atRouter.wall.Seconds()
	m["bench.trace_overhead_frac"] = metric{1 - tracedTokS/plainTokS, "frac"}
	m["bench.machine_speed"] = metric{cal.speed(), "ratio"}

	var all tally
	for _, s := range []section{plain, atServe, atWorker, atRouter} {
		all.sum(s.tally)
	}
	return m, all, nil
}

// affinityFrac is the share of the keyed requests the taps counted, those of
// the router-depth section, that reached their session's owner.
func (f *fleet) affinityFrac(g *generator) float64 {
	onOwner, keyed := 0, 0
	for wi, t := range f.taps {
		t.mu.Lock()
		for s, key := range g.sessionKeys {
			keyed += t.keyed[key]
			if f.owner[s] == wi {
				onOwner += t.keyed[key]
			}
		}
		t.mu.Unlock()
	}
	if keyed == 0 {
		return 1 // no keyed traffic, so none misplaced
	}
	return float64(onOwner) / float64(keyed)
}
