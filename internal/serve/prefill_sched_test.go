package serve

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/failpoint"
	"repro/internal/lm"
	"repro/internal/mathx"
	"repro/internal/sample"
	"repro/internal/transformer"
)

// fakeBatch records the loop's exact sequence of passes, so the scheduling
// tests can assert the pass policy (one pass per iteration, at most one
// bounded prompt chunk in it) independent of model arithmetic. Zero logits
// make Greedy sample token 0 deterministically. Per-slot lengths track every
// pass; against the prompt length each slot was attached with they tell a
// prompt chunk from a decode row.
type fakeBatch struct {
	vocab  int
	next   int
	ops    []string    // "[S<rows> P<len>]" per pass: its decode rows and its prompt chunk
	lens   map[int]int // ingested positions per live slot
	prompt map[int]int // attached prompt length per live slot

	tag  bool                 // suffix per-slot entries with the slot's letter: "P4b"
	fail func(kind byte) bool // reports whether this call ('A' Attach, 'S' a pass) panics
}

// name formats one per-slot entry of an op: "P4", or with tag "P4b".
func (f *fakeBatch) name(kind byte, n, slot int) string {
	op := fmt.Sprintf("%c%d", kind, n)
	if f.tag {
		op += string(rune('a' + slot))
	}
	return op
}

// record logs one predictor call, or — when fail picks it — logs it with a
// "!" and panics in its place.
func (f *fakeBatch) record(kind byte, op string) {
	if f.fail != nil && f.fail(kind) {
		f.ops = append(f.ops, op+"!")
		panic("fakeBatch: injected fault in " + op)
	}
	f.ops = append(f.ops, op)
}

func (f *fakeBatch) Add() int {
	if f.lens == nil {
		f.lens, f.prompt = make(map[int]int), make(map[int]int)
	}
	id := f.next
	f.next++
	f.lens[id] = 0
	return id
}

func (f *fakeBatch) Drop(id int) { delete(f.lens, id); delete(f.prompt, id) }

// Attach and PrefixBlocks are the predictor without a prefix cache: nothing
// restored, nothing resident.
func (f *fakeBatch) Attach(id int, ids []int) int {
	if f.fail != nil && f.fail('A') {
		panic("fakeBatch: injected fault in Attach")
	}
	f.prompt[id] = len(ids)
	return 0
}
func (f *fakeBatch) PrefixBlocks() (int, uint64) { return 0, 0 }

func (f *fakeBatch) Pass(chunks []transformer.Chunk) [][]float64 {
	rows, parts := 0, []string(nil)
	for _, c := range chunks {
		if f.lens[c.ID] < f.prompt[c.ID] {
			parts = append(parts, f.name('P', len(c.Tokens), c.ID))
		} else {
			rows++
		}
	}
	if rows > 0 {
		parts = append([]string{fmt.Sprintf("S%d", rows)}, parts...)
	}
	f.record('S', "["+strings.Join(parts, " ")+"]")
	var out [][]float64
	for _, c := range chunks {
		f.lens[c.ID] += len(c.Tokens)
		out = append(out, make([]float64, f.vocab))
	}
	return out
}

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

	passes [2]int // iterations that made 0 and 1 passes
}

// runSched drives reqs through admit and iterate on the loop state — no
// goroutine, no clock: arrivals queue up and are admitted while the batch
// has room, exactly as Server.loop tops it up. boom names the one predictor
// call that panics ("S2": the second pass; 'A' counts Attach calls). After
// every iterate it checks what holds on any schedule:
//
//   - the iteration made at most one pass;
//   - that pass carried at most MaxBatch decode rows and at most one prompt
//     chunk, of at most PrefillChunk tokens;
//   - every request that began the iteration past its prompt and did not
//     fail gained at least one token — so whatever else the iteration ran
//     delayed an in-flight decode by one bounded chunk at most;
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
		f := &fakeBatch{vocab: m.Tok.VocabSize(), tag: tag}
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
	var passes [2]int
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

		made := 0
		for _, op := range ops()[before:] {
			if op == "|" {
				continue // the rebuild after a failed pass
			}
			if made++; made > 1 {
				t.Fatalf("iteration %d ran %v: want at most one pass", it, ops()[before:])
			}
			chunks := 0
			for _, part := range strings.Fields(strings.Trim(op, "[]!")) {
				var n int
				fmt.Sscanf(part[1:], "%d", &n)
				switch part[0] {
				case 'S':
					if n > s.cfg.MaxBatch {
						t.Fatalf("iteration %d: pass %s has more decode rows than MaxBatch %d", it, op, s.cfg.MaxBatch)
					}
				case 'P':
					if chunks++; chunks > 1 || n > s.cfg.PrefillChunk {
						t.Fatalf("iteration %d: pass %s carries more than one chunk of at most PrefillChunk %d", it, op, s.cfg.PrefillChunk)
					}
				}
			}
		}
		passes[made]++
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

	res := schedResult{ops: strings.Join(ops(), " "), stats: s.Stats(), passes: passes}
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

// TestConfigDefaults: zero and negative values both select a bounded
// field's default, and a positive value is kept.
func TestConfigDefaults(t *testing.T) {
	for _, f := range []struct {
		name  string
		field func(*Config) *int
		def   int
	}{
		{"MaxBatch", func(c *Config) *int { return &c.MaxBatch }, 8},
		{"QueueDepth", func(c *Config) *int { return &c.QueueDepth }, 64},
		{"PrefillChunk", func(c *Config) *int { return &c.PrefillChunk }, 64},
	} {
		for _, v := range []int{0, -1, 7} {
			var c Config
			*f.field(&c) = v
			d := c.withDefaults()
			want := f.def
			if v > 0 {
				want = v
			}
			if got := *f.field(&d); got != want {
				t.Errorf("%s %d: withDefaults gives %d, want %d", f.name, v, got, want)
			}
		}
	}
}

// TestScheduling pins the serving policy as plain data: requests and a
// config in, the sequence of passes, the outcomes and the counters out. Each
// "[...]" is one pass: "S<n>" its n decode rows, "P<n>" its prompt chunk;
// every expected sequence below is derived by hand in its comment.
func TestScheduling(t *testing.T) {
	chunk4 := Config{MaxBatch: 4, PrefillChunk: 4}
	cases := []struct {
		name  string
		cfg   Config
		reqs  []schedReq
		boom  string
		fault failpoint.Rule // armed for the run when its Site is set
		tag   bool
		want  schedResult
	}{{
		// Prompts are ingested in chunks of at most PrefillChunk tokens, one
		// chunk per pass beside the decode rows (so a mid-decode request never
		// shares a pass with more than one chunk of someone else's prompt),
		// and a finished prompt samples its first token from its pass and is
		// a decode row from the next. A: 2-token prompt, 8 tokens; B, arriving
		// at iteration 1: 12 (3 chunks), 3 tokens. A's prompt (it 0), then
		// A's rows 2-4 beside B's chunks (its 1-3; B samples its first token
		// at 3), both decoding (its 4-5; B done), A alone (its 6-7). 8+3
		// sampled tokens, two of them from a chunk's last row: those count
		// toward DecodeTokens but occupy no decode row.
		name: "PrefillChunkScheduling", cfg: chunk4,
		reqs: []schedReq{{words: 2, tokens: 8}, {words: 12, tokens: 3, at: 1}},
		want: schedResult{ops: "[P2] [S1 P4] [S1 P4] [S1 P4] [S2] [S2] [S1] [S1]", outs: "ok ok", stats: Stats{
			Requests: 2, Completed: 2, PrefixLookups: 2,
			PromptTokens: 14, DecodeTokens: 11, Steps: 7, StepRows: 9, MaxBatch: 2,
			PrefillChunkHist: [9]uint64{1: 1, 2: 3}, BatchHist: [9]uint64{0: 5, 1: 2},
		}},
	}, {
		// Decode rows and a chunk share one pass, however many rows there are.
		// A and B (2-token prompts, 4 tokens) prefill in turn, A's second
		// token riding B's chunk (it 1); C (9 words, 2 tokens) arrives at
		// iteration 2 and its chunks ride beside both decode rows (its 2-3;
		// A done at 3), its last token beside B's last row (it 4; C samples
		// its first), and C's last token alone (it 5).
		name: "decode rows and a chunk share one pass", cfg: chunk4, tag: true,
		reqs: []schedReq{{words: 2, tokens: 4}, {words: 2, tokens: 4}, {words: 9, tokens: 2, at: 2}},
		want: schedResult{ops: "[P2a] [S1 P2b] [S2 P4c] [S2 P4c] [S1 P1c] [S1]", outs: "ok ok ok", stats: Stats{
			Requests: 3, Completed: 3, PrefixLookups: 3,
			PromptTokens: 13, DecodeTokens: 10, Steps: 5, StepRows: 7, MaxBatch: 2,
			PrefillChunkHist: [9]uint64{0: 1, 1: 2, 2: 2}, BatchHist: [9]uint64{0: 3, 1: 2},
		}},
	}, {
		// A PrefillChunk at least as long as the prompt takes the whole
		// prompt in one pass, which samples the first token; the second
		// rides the next.
		name: "PrefillChunkConfigured", cfg: Config{PrefillChunk: 16},
		reqs: []schedReq{{words: 12, tokens: 2}},
		want: schedResult{ops: "[P12] [S1]", outs: "ok", stats: Stats{
			Requests: 1, Completed: 1, PrefixLookups: 1,
			PromptTokens: 12, DecodeTokens: 2, Steps: 1, StepRows: 1, MaxBatch: 1,
			PrefillChunkHist: [9]uint64{4: 1}, BatchHist: [9]uint64{0: 1},
		}},
	}, {
		// Three prompts ingesting together take their chunks strictly in
		// turn (its 0-6); each finished prompt's second token rides the next
		// prompt's last chunk, and c's rides alone.
		name: "round-robin prefill", cfg: chunk4, tag: true,
		reqs: []schedReq{{words: 9, tokens: 2}, {words: 9, tokens: 2}, {words: 9, tokens: 2}},
		want: schedResult{ops: "[P4a] [P4b] [P4c] [P4a] [P4b] [P4c] [P1a] [S1 P1b] [S1 P1c] [S1]", outs: "ok ok ok", stats: Stats{
			Requests: 3, Completed: 3, PrefixLookups: 3,
			PromptTokens: 27, DecodeTokens: 6, Steps: 3, StepRows: 3, MaxBatch: 1,
			PrefillChunkHist: [9]uint64{0: 3, 2: 6}, BatchHist: [9]uint64{0: 3},
		}},
	}, {
		// A request leaving from below a cursor must not cost the next one
		// its turn: A finishes on its only chunk, and B — not C — is next.
		// B's second token rides C's last chunk.
		name: "cursor survives a removal", cfg: chunk4, tag: true,
		reqs: []schedReq{{words: 2, tokens: 1}, {words: 9, tokens: 2}, {words: 9, tokens: 2}},
		want: schedResult{ops: "[P2a] [P4b] [P4c] [P4b] [P4c] [P1b] [S1 P1c] [S1]", outs: "ok ok ok", stats: Stats{
			Requests: 3, Completed: 3, PrefixLookups: 3,
			PromptTokens: 20, DecodeTokens: 5, Steps: 2, StepRows: 2, MaxBatch: 1,
			PrefillChunkHist: [9]uint64{0: 2, 1: 1, 2: 4}, BatchHist: [9]uint64{0: 2},
		}},
	}, {
		// A one-token budget is spent on the chunk's last row: no decode row.
		name: "MaxTokens 1 never steps", cfg: chunk4,
		reqs: []schedReq{{words: 2, tokens: 1}},
		want: schedResult{ops: "[P2]", outs: "ok", stats: Stats{
			Requests: 1, Completed: 1, PrefixLookups: 1,
			PromptTokens: 2, DecodeTokens: 1, PrefillChunkHist: [9]uint64{1: 1},
		}},
	}, {
		// A context cancelled between two iterations frees its slot in the
		// next one's sweep, before any further pass: a's first chunk (it 0),
		// then b's prompt (it 1) and two decode rows.
		name: "cancelled between iterations", cfg: chunk4, tag: true,
		reqs: []schedReq{{words: 12, tokens: 4, cancel: 1}, {words: 2, tokens: 3}},
		want: schedResult{ops: "[P4a] [P2b] [S1] [S1]", outs: "cancelled ok", stats: Stats{
			Requests: 2, Completed: 1, Cancelled: 1, PrefixLookups: 2,
			PromptTokens: 6, DecodeTokens: 3, Steps: 2, StepRows: 2, MaxBatch: 1,
			PrefillChunkHist: [9]uint64{1: 1, 2: 1}, BatchHist: [9]uint64{0: 2},
		}},
	}, {
		// A panic while admitting (here in the prefix-cache probe) fails that
		// request alone and gives back the slot it had taken.
		name: "admission panic", cfg: chunk4, tag: true, boom: "A2",
		reqs: []schedReq{{words: 2, tokens: 3}, {words: 2, tokens: 3}},
		want: schedResult{ops: "[P2a] [S1] [S1]", outs: "ok panic(admit)", stats: Stats{
			Requests: 2, Completed: 1, Failed: 1, Panics: 1, PrefixLookups: 1,
			PromptTokens: 2, DecodeTokens: 3, Steps: 2, StepRows: 2, MaxBatch: 1,
			PrefillChunkHist: [9]uint64{1: 1}, BatchHist: [9]uint64{0: 2},
		}},
	}, {
		// An injected serve/prefill fault removes only its chunk, and the
		// pass still serves the other rows. A prefills (hit 1) and decodes;
		// B's first chunk rides A's second row (hit 2); at B's second chunk
		// (hit 3) the site fires before the pass, B alone fails, and the pass
		// carries A's row without it.
		name: "prefill fault removes only its chunk", cfg: chunk4, tag: true,
		fault: failpoint.Rule{Site: failpoint.ServePrefill, Kind: failpoint.KindPanic, After: 2, Count: 1},
		reqs:  []schedReq{{words: 2, tokens: 4}, {words: 9, tokens: 2, at: 1}},
		want: schedResult{ops: "[P2a] [S1 P4b] [S1] [S1]", outs: "ok panic(prefill)", stats: Stats{
			Requests: 2, Completed: 1, Failed: 1, Panics: 1, PrefixLookups: 2,
			PromptTokens: 6, DecodeTokens: 4, Steps: 3, StepRows: 3, MaxBatch: 1,
			PrefillChunkHist: [9]uint64{1: 1, 2: 1}, BatchHist: [9]uint64{0: 3},
		}},
	}, {
		// A failed pass cannot be pinned on one request: the whole batch
		// fails — here the pass carrying a's decode row and b's prompt chunk,
		// so b's chunk is lost with it — and the next arrival is served by a
		// fresh predictor.
		name: "step failure", cfg: chunk4, tag: true, boom: "S2",
		reqs: []schedReq{{words: 2, tokens: 4}, {words: 2, tokens: 4}, {words: 2, tokens: 2, at: 3}},
		want: schedResult{ops: "[P2a] [S1 P2b]! | [P2a] [S1]", outs: "panic(step) panic(step) ok", stats: Stats{
			Requests: 3, Completed: 1, Failed: 2, Panics: 2, PrefixLookups: 3,
			PromptTokens: 4, DecodeTokens: 3, Steps: 1, StepRows: 1, MaxBatch: 1,
			PrefillChunkHist: [9]uint64{1: 2}, BatchHist: [9]uint64{0: 1},
		}},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.fault.Site != "" {
				if err := failpoint.Arm(failpoint.Plan{Seed: 1, Rules: []failpoint.Rule{c.fault}}); err != nil {
					t.Fatal(err)
				}
				defer failpoint.Disarm()
			}
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
// cancellations, budgets, batch widths, chunk sizes — through runSched,
// whose per-iteration checks are the properties.
func TestSchedulingProperties(t *testing.T) {
	var passes [2]int
	for seed := uint64(1); seed <= 40; seed++ {
		rng := mathx.NewRNG(seed)
		cfg := Config{MaxBatch: 1 + rng.Intn(4), PrefillChunk: 1 + rng.Intn(5)}
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
		for k, n := range got.passes {
			passes[k] += n
		}
	}
	t.Logf("iterations by passes made (0, 1): %v", passes)
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
