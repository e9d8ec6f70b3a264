package sample

// This file is the speculative-decoding driver: a cheap draft model proposes
// a block of k tokens, the target model scores the whole block in one
// chunked verification pass (SpecTarget.ExtendAll), and the longest
// acceptable prefix is kept while the rejected suffix is rewound out of the
// target's cache. Every accepted round replaces k+1 sequential target steps
// with one matrix-matrix pass, which is where the tokens/s comes from.
//
// One acceptance rule serves every strategy, exact match: the decoder samples
// each verification row exactly as plain decoding would — same logits, same
// order, one RNG draw per emitted token — and a draft token survives only if
// it equals the decoder's own pick. Drafting consumes no randomness, so a
// request's draws depend on its own token index alone and the emitted stream
// is bitwise plain decoding whatever the strategy, the draft depth, the
// drafter, or which iterations of a serving loop gave the request a round.
// (Rejection sampling, the usual rule for stochastic strategies, accepts
// slightly more drafts but takes its draws per round, so its stream depends
// on the schedule; EXPERIMENTS E32 measures the difference.)
type Speculative struct {
	// K is the draft depth: tokens proposed per round. Each round's actual
	// depth is clamped to the decoder's remaining budget and the target's
	// window room.
	K int
	// Drafter proposes draft tokens. nil degrades every round to a plain
	// single-token verification step (correct, never faster).
	Drafter Drafter

	// Stats accumulates across rounds; callers read it between rounds (the
	// driver is single-threaded).
	Stats SpecStats

	// Round scratch, grown once and reused.
	dctx    []int
	chunk   []int
	emitted []int
}

// Drafter is the draft-model contract: Draft proposes the next token given
// the full decoded context so far (prompt, emitted tokens, and this round's
// earlier drafts). What it proposes decides only how many drafts survive,
// never what is emitted. It must not retain ctx.
type Drafter interface {
	Draft(ctx []int) int
}

// SpecTarget is the target-model surface speculative decoding needs beyond
// plain stepping: block verification with per-position logits, cache
// truncation, and the current cached length. transformer.Predictor
// implements it; the serving loop adapts BatchedPredictor sequences to it.
type SpecTarget interface {
	// ExtendAll ingests ids and returns next-token logits for every
	// position, bitwise identical to feeding them one at a time.
	ExtendAll(ids []int) [][]float64
	// Rewind discards the last n ingested positions.
	Rewind(n int)
	// Len returns the number of ingested positions.
	Len() int
}

// SpecStats counts speculative-decoding outcomes. AcceptHist[i] counts
// drafting rounds whose accepted prefix was exactly i draft tokens (the last
// bucket collects deeper rounds); rounds that drafted nothing (budget or
// window exhausted the depth) count in Rounds only.
type SpecStats struct {
	Rounds     uint64     `json:"rounds"`
	Drafted    uint64     `json:"drafted"`
	Accepted   uint64     `json:"accepted"`
	AcceptHist [17]uint64 `json:"accept_hist"`
}

// RoundResult reports one verification round. Emitted aliases the driver's
// scratch and is valid until the next Round call.
type RoundResult struct {
	Emitted  []int // tokens emitted this round, in order (at least one)
	Drafted  int   // draft tokens proposed
	Accepted int   // draft tokens accepted
	Done     bool  // decoding finished (budget or stop token)
}

// Round runs one draft/verify/rewind cycle. ctx is the full decoded context
// so far — prompt plus every emitted token — whose final element is the
// pending token the target has not ingested yet; room is the target's
// remaining window capacity (use a large value for unbounded targets). Round
// ingests the pending token plus up to K draft tokens through one
// ExtendAll pass, emits the accepted prefix plus one token the decoder
// sampled from the target (the correction at the first disagreement, the
// bonus when the whole draft survives), and rewinds the target past whatever
// was rejected. On return the target has ingested exactly the old context
// plus the accepted tokens; the new pending token is the last element of
// RoundResult.Emitted.
func (sp *Speculative) Round(t SpecTarget, dec *Decoder, ctx []int, room int) RoundResult {
	if dec.done {
		panic("sample: Speculative.Round after completion")
	}
	if len(ctx) == 0 {
		panic("sample: Speculative.Round needs the pending token in ctx")
	}
	if room < 1 {
		panic("sample: Speculative.Round without window room")
	}

	// Clamp the draft depth: the round emits accepted+1 ≤ m+1 tokens against
	// a budget of dec.remaining, and ingests m+1 positions against room.
	m := sp.K
	if r := dec.remaining - 1; m > r {
		m = r
	}
	if m > room-1 {
		m = room - 1
	}
	if m < 0 || sp.Drafter == nil {
		m = 0
	}

	// The verification block: the pending token, then m drafts, each drafted
	// on the context grown by the ones before it.
	sp.chunk = append(sp.chunk[:0], ctx[len(ctx)-1])
	sp.dctx = append(sp.dctx[:0], ctx...)
	for i := 0; i < m; i++ {
		d := sp.Drafter.Draft(sp.dctx)
		sp.chunk = append(sp.chunk, d)
		sp.dctx = append(sp.dctx, d)
	}

	// One chunked verification pass: logits after every block position. The
	// decoder samples row i exactly as plain decoding samples that token; the
	// first pick that disagrees with draft i+1 is the correction, and when
	// every draft agrees the last row gives the bonus.
	L := t.ExtendAll(sp.chunk)
	sp.emitted = sp.emitted[:0]
	accepted, done := 0, false
	for i := 0; i <= m && !done; i++ {
		tok, dd := dec.Next(L[i])
		sp.emitted = append(sp.emitted, tok)
		done = dd
		if i == m || tok != sp.chunk[i+1] {
			break
		}
		accepted++
	}

	// Rewind the rejected suffix: the target ingested m+1 positions, the
	// context advanced by accepted+1 of them (pending + accepted drafts —
	// this round's emitted correction/bonus is the next pending token).
	if rw := m - accepted; rw > 0 {
		t.Rewind(rw)
	}

	sp.Stats.Rounds++
	if m > 0 {
		sp.Stats.Drafted += uint64(m)
		sp.Stats.Accepted += uint64(accepted)
		b := accepted
		if b >= len(sp.Stats.AcceptHist) {
			b = len(sp.Stats.AcceptHist) - 1
		}
		sp.Stats.AcceptHist[b]++
	}
	return RoundResult{Emitted: sp.emitted, Drafted: m, Accepted: accepted, Done: done}
}
