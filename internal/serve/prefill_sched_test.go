package serve

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/lm"
	"repro/internal/mathx"
	"repro/internal/sample"
)

// fakeBatch records the loop's exact predictor call sequence, so the
// scheduling tests can assert the chunked-prefill and speculative-round
// policies (bounded chunks, at most one chunk or round between decode
// steps) independent of model arithmetic. Zero logits make Greedy sample
// token 0 deterministically. Per-slot lengths track Prefill/PrefillAll/
// Step/Rewind so the speculative scheduling test can assert window
// accounting too.
type fakeBatch struct {
	vocab int
	next  int
	ops   []string    // "P<len>" per Prefill, "S<rows>" per Step, "V<len>" per PrefillAll, "R<n>" per Rewind
	lens  map[int]int // ingested positions per live slot

	tag  bool                 // suffix per-slot ops with the slot's letter: "P4b"
	fail func(kind byte) bool // reports whether this call ('A' for Attach, else the op letter) panics
}

// record logs one predictor call, or — when fail picks it — logs it with a
// "!" and panics in its place.
func (f *fakeBatch) record(kind byte, n, slot int) {
	op := fmt.Sprintf("%c%d", kind, n)
	if f.tag && slot >= 0 {
		op += string(rune('a' + slot))
	}
	if f.fail != nil && f.fail(kind) {
		f.ops = append(f.ops, op+"!")
		panic("fakeBatch: injected fault in " + op)
	}
	f.ops = append(f.ops, op)
}

func (f *fakeBatch) Add() int {
	if f.lens == nil {
		f.lens = make(map[int]int)
	}
	id := f.next
	f.next++
	f.lens[id] = 0
	return id
}

func (f *fakeBatch) Drop(id int) { delete(f.lens, id) }

// Attach and PrefixBlocks are the predictor without a prefix cache: nothing
// restored, nothing resident.
func (f *fakeBatch) Attach(int, []int) int {
	if f.fail != nil && f.fail('A') {
		panic("fakeBatch: injected fault in Attach")
	}
	return 0
}
func (f *fakeBatch) PrefixBlocks() (int, uint64) { return 0, 0 }

func (f *fakeBatch) Step(ids, toks []int) [][]float64 {
	f.record('S', len(ids), -1)
	out := make([][]float64, len(ids))
	for i, id := range ids {
		f.lens[id]++
		out[i] = make([]float64, f.vocab)
	}
	return out
}

func (f *fakeBatch) Prefill(id int, ids []int) []float64 {
	f.record('P', len(ids), id)
	f.lens[id] += len(ids)
	return make([]float64, f.vocab)
}

func (f *fakeBatch) PrefillAll(id int, ids []int) [][]float64 {
	f.record('V', len(ids), id)
	f.lens[id] += len(ids)
	out := make([][]float64, len(ids))
	for i := range out {
		out[i] = make([]float64, f.vocab)
	}
	return out
}

func (f *fakeBatch) Rewind(id, n int) {
	f.record('R', n, id)
	if n < 0 || n > f.lens[id] {
		panic("fakeBatch: rewind out of range")
	}
	f.lens[id] -= n
}

func (f *fakeBatch) Len(id int) int { return f.lens[id] }

// schedReq is one request of a scheduling case. Iterations are numbered from
// zero; things scheduled "at" one happen just before that iterate call.
type schedReq struct {
	words  int // prompt length in tokens
	tokens int // MaxTokens
	at     int // arrival iteration
	cancel int // iteration at which its context is cancelled; 0 = never
}

// schedResult is what a scheduling run observed.
type schedResult struct {
	ops   string // every predictor call in order; " | " where the loop rebuilt its predictor
	outs  string // each request's terminal outcome, in request order
	stats Stats
}

// runSched drives reqs through admit and iterate on the loop state — no
// goroutine, no clock: arrivals queue up and are admitted while the batch
// has room, exactly as Server.loop tops it up. boom names the one predictor
// call that panics ("V2": the second PrefillAll; 'A' counts Attach calls).
// After every iterate it checks what holds on any schedule:
//
//   - the iteration made at most one prefill pass, then at most one
//     verification round, then at most one step, in that order, no pass
//     longer than PrefillChunk and no step wider than MaxBatch;
//   - every request that began the iteration past its prompt and did not
//     fail gained at least one token — so whatever else the iteration ran
//     delayed an in-flight decode by one bounded chunk and round at most;
//   - the predictor's live slots are exactly the active requests' slots;
//   - no request received a second terminal outcome.
//
// At the end every request has exactly one, and the ledger balances.
func runSched(t *testing.T, cfg Config, reqs []schedReq, boom string, tag bool) schedResult {
	t.Helper()
	m := testLLM(t)
	s := newServer(m, cfg)
	var fakes []*fakeBatch
	calls := 0
	s.newBatch = func() batchPredictor {
		f := &fakeBatch{vocab: m.Tok.VocabSize(), tag: tag, lens: map[int]int{}}
		if boom != "" {
			f.fail = func(kind byte) bool {
				if kind != boom[0] {
					return false
				}
				calls++
				return fmt.Sprintf("%c%d", kind, calls) == boom
			}
		}
		fakes = append(fakes, f)
		return f
	}
	b := &batch{Server: s, bp: s.newBatch()}
	ops := func() (all []string) {
		for i, f := range fakes {
			if i > 0 {
				all = append(all, "|")
			}
			all = append(all, f.ops...)
		}
		return all
	}

	pend := make([]*pending, len(reqs))
	outs := map[*pending]outcome{}
	last := 0
	for i, r := range reqs {
		words := make([]string, r.words)
		for j := range words {
			words[j] = []string{"the", "king"}[j%2]
		}
		ctx, cancel := context.WithCancelCause(context.Background())
		pend[i] = &pending{ctx: ctx, cancel: cancel, done: make(chan outcome, 1),
			req: Request{Prompt: strings.Join(words, " "), MaxTokens: r.tokens}}
		last = max(last, r.at, r.cancel)
	}
	var waiting []*pending
	for it := 0; it <= last || len(b.active)+len(waiting) > 0; it++ {
		if it > 10000 {
			t.Fatalf("schedule did not drain: %v", ops())
		}
		for i, r := range reqs {
			if r.at == it {
				s.count(func(st *Stats) { st.Requests++ })
				waiting = append(waiting, pend[i])
			}
			if r.cancel == it && it > 0 {
				pend[i].cancel(nil)
			}
		}
		for len(waiting) > 0 && len(b.active) < s.cfg.MaxBatch {
			b.admit(waiting[0])
			waiting = waiting[1:]
		}
		decoding := map[*liveReq]int{}
		for _, lr := range b.active {
			if len(lr.forced) == 0 && lr.p.ctx.Err() == nil {
				decoding[lr] = len(lr.dec.Tokens())
			}
		}
		before := len(ops())

		b.iterate()

		kinds := ""
		for _, op := range ops()[before:] {
			var n int
			fmt.Sscanf(op[1:], "%d", &n)
			switch {
			case op[0] == 'P' && s.cfg.PrefillChunk > 0 && n > s.cfg.PrefillChunk:
				t.Fatalf("iteration %d: prefill pass %s exceeds PrefillChunk %d", it, op, s.cfg.PrefillChunk)
			case op[0] == 'S' && n > s.cfg.MaxBatch:
				t.Fatalf("iteration %d: step %s exceeds MaxBatch %d", it, op, s.cfg.MaxBatch)
			}
			kinds += op[:1]
		}
		// "PVRS" in order, each at most once (R is a round's rewind, a
		// trailing "|" the rebuild after a failed step).
		order := "PVRS|"
		for _, k := range kinds {
			i := strings.IndexRune(order, k)
			if i < 0 {
				t.Fatalf("iteration %d ran %v: want at most one prefill pass, one round and one step", it, ops()[before:])
			}
			order = order[i+1:]
		}
		for i, p := range pend {
			select {
			case o := <-p.done:
				if prev, dup := outs[p]; dup {
					t.Fatalf("request %d: second terminal outcome %v after %v", i, o.err, prev.err)
				}
				outs[p] = o
			default:
			}
		}
		for lr, n := range decoding {
			if outs[lr.p].err == nil && len(lr.dec.Tokens()) <= n {
				t.Fatalf("iteration %d: a decode-phase request gained no token (%v)", it, ops()[before:])
			}
		}
		var slots []int
		for _, lr := range b.active {
			slots = append(slots, lr.slot)
		}
		live := slices.Sorted(maps.Keys(b.bp.(*fakeBatch).lens))
		if slices.Sort(slots); !slices.Equal(slots, live) {
			t.Fatalf("iteration %d: predictor holds slots %v, the batch %v", it, live, slots)
		}
	}

	res := schedResult{ops: strings.Join(ops(), " "), stats: s.Stats()}
	for i, p := range pend {
		o, ok := outs[p]
		var pe *PanicError
		switch {
		case !ok:
			t.Fatalf("request %d never reached a terminal outcome", i)
		case o.err == nil:
			res.outs += " ok"
		case errors.As(o.err, &pe):
			res.outs += " panic(" + pe.Site + ")"
		case errors.Is(o.err, context.Canceled):
			res.outs += " cancelled"
		default:
			res.outs += " " + o.err.Error()
		}
	}
	res.outs = strings.TrimSpace(res.outs)
	checkInvariant(t, res.stats)
	if res.stats.InFlight != 0 {
		t.Errorf("InFlight = %d after the schedule drained", res.stats.InFlight)
	}
	return res
}

// TestScheduling pins the serving policy as plain data: requests and a
// config in, the predictor call sequence, the outcomes and the counters out.
func TestScheduling(t *testing.T) {
	if got := (Config{}).withDefaults().PrefillChunk; got != 32 {
		t.Fatalf("default PrefillChunk = %d, want 32", got)
	}
	if got := (Config{PrefillChunk: 7}).withDefaults().PrefillChunk; got != 7 {
		t.Fatalf("explicit PrefillChunk = %d, want 7", got)
	}
	vocab := testLLM(t).Tok.VocabSize()
	chunk4 := Config{MaxBatch: 4, CoalesceWait: -1, PrefillChunk: 4}
	spec3 := Config{MaxBatch: 4, CoalesceWait: -1, PrefillChunk: 4, Speculate: 3, Drafter: uniformDrafter{vocab}}
	cases := []struct {
		name string
		cfg  Config
		reqs []schedReq
		boom string
		tag  bool
		want schedResult
	}{{
		// Prompts are ingested in chunks of at most PrefillChunk tokens, at
		// most one chunk runs between consecutive decode steps (so a
		// mid-decode request is never stalled by more than one chunk of
		// someone else's prompt), and a finished prompt samples its first
		// token from the prefill logits and joins the decode batch the same
		// iteration. A: 2-token prompt, 8 tokens; B, arriving behind it: 12
		// (3 chunks), 3 tokens. 8+3 sampled tokens, two of them from prefill
		// logits: those count toward DecodeTokens but occupy no step row.
		name: "PrefillChunkScheduling", cfg: chunk4,
		reqs: []schedReq{{words: 2, tokens: 8}, {words: 12, tokens: 3, at: 1}},
		want: schedResult{ops: "P2 S1 P4 S1 P4 S1 P4 S2 S2 S1 S1", outs: "ok ok", stats: Stats{
			Requests: 2, Completed: 2, PrefixLookups: 2,
			PromptTokens: 14, DecodeTokens: 11, Steps: 7, StepRows: 9, MaxBatch: 2,
			PrefillChunkHist: [9]uint64{1: 1, 2: 3}, BatchHist: [9]uint64{0: 5, 1: 2},
		}},
	}, {
		// A negative PrefillChunk removes the cap: the whole prompt in one pass.
		name: "PrefillChunkConfigured", cfg: Config{CoalesceWait: -1, PrefillChunk: -1},
		reqs: []schedReq{{words: 12, tokens: 2}},
		want: schedResult{ops: "P12 S1", outs: "ok", stats: Stats{
			Requests: 1, Completed: 1, PrefixLookups: 1,
			PromptTokens: 12, DecodeTokens: 2, Steps: 1, StepRows: 1, MaxBatch: 1,
			PrefillChunkHist: [9]uint64{4: 1}, BatchHist: [9]uint64{0: 1},
		}},
	}, {
		// At most one verification round per iteration, rounds interleave
		// with (never block) another request's chunked prefill, and every
		// round's depth respects the remaining budget. A prefills and takes a
		// depth-3 round (V4 = pending + 3 drafts, all accepted by the uniform
		// drafter, no rewind); B's prompt chunks land between A's rounds; B's
		// own round is budget-clamped to depth 1 (V2).
		name: "SpeculativeScheduling", cfg: spec3,
		reqs: []schedReq{{words: 2, tokens: 9}, {words: 12, tokens: 3, at: 1}},
		want: schedResult{ops: "P2 V4 P4 V4 P4 P4 V2", outs: "ok ok", stats: Stats{
			Requests: 2, Completed: 2, PrefixLookups: 2,
			PromptTokens: 14, DecodeTokens: 12,
			PrefillChunkHist: [9]uint64{1: 1, 2: 3},
			SpecRounds:       3, SpecDrafted: 7, SpecAccepted: 7, SpecAcceptHist: [17]uint64{1: 1, 3: 2},
		}},
	}, {
		// Three prompts ingesting together take their chunks strictly in turn.
		name: "round-robin prefill", cfg: chunk4, tag: true,
		reqs: []schedReq{{words: 9, tokens: 2}, {words: 9, tokens: 2}, {words: 9, tokens: 2}},
		want: schedResult{ops: "P4a P4b P4c P4a P4b P4c P1a S1 P1b S1 P1c S1", outs: "ok ok ok", stats: Stats{
			Requests: 3, Completed: 3, PrefixLookups: 3,
			PromptTokens: 27, DecodeTokens: 6, Steps: 3, StepRows: 3, MaxBatch: 1,
			PrefillChunkHist: [9]uint64{0: 3, 2: 6}, BatchHist: [9]uint64{0: 3},
		}},
	}, {
		// A request leaving from below a cursor must not cost the next one
		// its turn: A finishes on its only chunk, and B — not C — is next.
		name: "cursor survives a removal", cfg: chunk4, tag: true,
		reqs: []schedReq{{words: 2, tokens: 1}, {words: 9, tokens: 2}, {words: 9, tokens: 2}},
		want: schedResult{ops: "P2a P4b P4c P4b P4c P1b S1 P1c S1", outs: "ok ok ok", stats: Stats{
			Requests: 3, Completed: 3, PrefixLookups: 3,
			PromptTokens: 20, DecodeTokens: 5, Steps: 2, StepRows: 2, MaxBatch: 1,
			PrefillChunkHist: [9]uint64{0: 2, 1: 1, 2: 4}, BatchHist: [9]uint64{0: 2},
		}},
	}, {
		// A one-token budget is spent on the prefill logits: no step row.
		name: "MaxTokens 1 never steps", cfg: chunk4,
		reqs: []schedReq{{words: 2, tokens: 1}},
		want: schedResult{ops: "P2", outs: "ok", stats: Stats{
			Requests: 1, Completed: 1, PrefixLookups: 1,
			PromptTokens: 2, DecodeTokens: 1, PrefillChunkHist: [9]uint64{1: 1},
		}},
	}, {
		// A context cancelled between two iterations frees its slot in the
		// next one's sweep, before any further predictor call.
		name: "cancelled between iterations", cfg: chunk4, tag: true,
		reqs: []schedReq{{words: 12, tokens: 4, cancel: 1}, {words: 2, tokens: 3}},
		want: schedResult{ops: "P4a P2b S1 S1", outs: "cancelled ok", stats: Stats{
			Requests: 2, Completed: 1, Cancelled: 1, PrefixLookups: 2,
			PromptTokens: 6, DecodeTokens: 3, Steps: 2, StepRows: 2, MaxBatch: 1,
			PrefillChunkHist: [9]uint64{1: 1, 2: 1}, BatchHist: [9]uint64{0: 2},
		}},
	}, {
		// A panic while admitting (here in the prefix-cache probe) fails that
		// request alone and gives back the slot it had taken.
		name: "admission panic", cfg: chunk4, tag: true, boom: "A2",
		reqs: []schedReq{{words: 2, tokens: 3}, {words: 2, tokens: 3}},
		want: schedResult{ops: "P2a S1 S1", outs: "ok panic(admit)", stats: Stats{
			Requests: 2, Completed: 1, Failed: 1, Panics: 1, PrefixLookups: 1,
			PromptTokens: 2, DecodeTokens: 3, Steps: 2, StepRows: 2, MaxBatch: 1,
			PrefillChunkHist: [9]uint64{1: 1}, BatchHist: [9]uint64{0: 2},
		}},
	}, {
		// A failed verification round fails its own request; the other keeps
		// its rounds and finishes.
		name: "verify failure", cfg: spec3, tag: true, boom: "V2",
		reqs: []schedReq{{words: 2, tokens: 9}, {words: 2, tokens: 4}},
		want: schedResult{ops: "P2a V4a P2b V3b! S1 V3a", outs: "ok panic(verify)", stats: Stats{
			Requests: 2, Completed: 1, Failed: 1, Panics: 1, PrefixLookups: 2,
			PromptTokens: 4, DecodeTokens: 10, Steps: 1, StepRows: 1, MaxBatch: 1,
			PrefillChunkHist: [9]uint64{1: 2}, BatchHist: [9]uint64{0: 1},
			SpecRounds: 2, SpecDrafted: 5, SpecAccepted: 5, SpecAcceptHist: [17]uint64{2: 1, 3: 1},
		}},
	}, {
		// A failed step cannot be pinned on one request: the whole batch
		// fails, and the next arrival is served by a fresh predictor.
		name: "step failure", cfg: chunk4, tag: true, boom: "S2",
		reqs: []schedReq{{words: 2, tokens: 4}, {words: 2, tokens: 4}, {words: 2, tokens: 2, at: 3}},
		want: schedResult{ops: "P2a S1 P2b S2! | P2a S1", outs: "panic(step) panic(step) ok", stats: Stats{
			Requests: 3, Completed: 1, Failed: 2, Panics: 2, PrefixLookups: 3,
			PromptTokens: 6, DecodeTokens: 5, Steps: 2, StepRows: 2, MaxBatch: 1,
			PrefillChunkHist: [9]uint64{1: 3}, BatchHist: [9]uint64{0: 2},
		}},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := runSched(t, c.cfg, c.reqs, c.boom, c.tag)
			if got.ops != c.want.ops {
				t.Errorf("op sequence %q, want %q", got.ops, c.want.ops)
			}
			if got.outs != c.want.outs {
				t.Errorf("outcomes %q, want %q", got.outs, c.want.outs)
			}
			if got.stats != c.want.stats {
				t.Errorf("stats\n %+v, want\n %+v", got.stats, c.want.stats)
			}
		})
	}
}

// TestSchedulingProperties runs seeded random traffic — arrivals,
// cancellations, budgets, batch widths, chunk sizes, speculation on and off —
// through runSched, whose per-iteration checks are the properties.
func TestSchedulingProperties(t *testing.T) {
	vocab := testLLM(t).Tok.VocabSize()
	for seed := uint64(1); seed <= 40; seed++ {
		rng := mathx.NewRNG(seed)
		cfg := Config{MaxBatch: 1 + rng.Intn(4), CoalesceWait: -1, PrefillChunk: 1 + rng.Intn(5)}
		if rng.Intn(2) == 1 {
			cfg.Speculate, cfg.Drafter = 1+rng.Intn(3), uniformDrafter{vocab}
		}
		reqs := make([]schedReq, 3+rng.Intn(8))
		for i := range reqs {
			reqs[i] = schedReq{words: 1 + rng.Intn(12), tokens: 1 + rng.Intn(8), at: rng.Intn(10)}
			if rng.Intn(4) == 0 {
				reqs[i].cancel = reqs[i].at + 1 + rng.Intn(6)
			}
		}
		got := runSched(t, cfg, reqs, "", true)
		if got.stats.Failed != 0 {
			t.Errorf("seed %d: %d requests failed with no fault injected: %s", seed, got.stats.Failed, got.outs)
		}
	}
}

// TestServeOverlongPromptMatchesDirect pins the keep-last window truncation
// at the serving layer: a prompt beyond the model window generates exactly
// what the direct driver produces for the same prompt.
func TestServeOverlongPromptMatchesDirect(t *testing.T) {
	m := testLLM(t)
	s := New(m, Config{PrefillChunk: 3})
	defer s.Close()
	long := strings.TrimSpace(strings.Repeat("the king sees ", 8)) // 24 tokens > window 16
	opts := []sample.Option{sample.WithMaxTokens(4), sample.WithSeed(2)}
	got, err := s.Gen(context.Background(), long, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lm.Gen(m, long, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != want.Text {
		t.Fatalf("served overlong prompt %q != direct %q", got.Text, want.Text)
	}
	if st := s.Stats(); st.PromptTokens == 0 {
		t.Errorf("PromptTokens = 0 after a served request")
	}
}
