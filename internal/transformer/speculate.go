package transformer

import (
	"fmt"

	"repro/internal/tensor"
)

// This file is the transformer side of speculative decoding: a verification
// pass that scores a whole block of drafted tokens in one chunked
// matrix-matrix sweep (ExtendAll / PrefillAll), and cache truncation
// (Rewind) that un-ingests the drafted suffix a verifier rejects.
//
// Rewind is a plain length decrement — no KV rows or interleaved key-pack
// lanes are cleared — and is still bitwise-exact, because stale state beyond
// the valid length is provably never read before being overwritten:
//
//   - Decode (Append/Step) at position pos scores keys [0, pos] only. The
//     packed score path reads full sixteen-row blocks up to
//     nb = (pos+1)/16 — every lane of those blocks holds a position ≤ pos —
//     and finishes the tail from the position-major key rows, also bounded
//     by pos. A stale lane lives strictly beyond pos and is skipped.
//   - A chunk pass (Extend/Prefill/ExtendAll) starting at position start
//     first rewrites rows [start, start+rows) of the key/value caches and
//     their pack lanes, then scores causally with full-block reads capped at
//     nFull = (start+rows)/16 — again never past the chunk's own frontier.
//   - Writes are position-addressed (kc.Row(pos), lane pos&15 of block
//     pos>>4), so re-ingesting position p after a rewind lands exactly where
//     the stale value sat, replacing it before any read.
//
// The rewind property test in rewind_test.go checks this bit for bit against
// predictors rebuilt from scratch, across window-boundary crossings, sparse
// and dense attention, and random Append/Extend/ExtendAll/Rewind schedules.

// Rewind discards the last n cached positions, as if the tokens that
// produced them had never been fed. It panics when n is negative or exceeds
// the cached length. The next Append/Extend continues from the truncated
// position with logits bitwise identical to a predictor that never saw the
// discarded tokens.
func (p *Predictor) Rewind(n int) {
	if n < 0 || n > p.n {
		panic(fmt.Sprintf("transformer: Rewind(%d) outside cached length %d", n, p.n))
	}
	p.n -= n
}

// ExtendAll feeds a chunk of tokens like Extend but returns next-token
// logits for every chunk position, not just the last: row r is bitwise
// identical to what Append(ids[r]) would have returned. This is the
// speculative-decoding verification pass — one blocked sweep scores a whole
// draft block, and the rows tell the acceptance loop where the target model
// first disagrees. Keep-last window truncation matches Extend; it returns
// nil when no tokens remain to ingest.
//
// The returned rows are views into the predictor's reusable scratch, valid
// until the next ExtendAll call.
func (p *Predictor) ExtendAll(ids []int) [][]float64 {
	ids = truncTail(ids, p.m.Cfg.Window-p.n)
	if len(ids) == 0 {
		return nil
	}
	rows := len(ids)
	logits := tensor.Ensure(&p.allLogits, rows, p.m.Cfg.Vocab)
	prefillRunAll(p.m, p.c, p.keys, p.vals, p.kpacks, p.n, ids, logits)
	p.n += rows
	if cap(p.allOut) < rows {
		p.allOut = make([][]float64, rows)
	}
	out := p.allOut[:rows]
	for r := range out {
		out[r] = logits.Row(r)
	}
	return out
}

// Rewind discards the last n cached positions of batch sequence id — the
// per-sequence form of Predictor.Rewind, with the same staleness argument
// (each sequence owns its KV cache and key packs; the shared step scratch
// holds no per-position state). Rewinding into an attached prompt also takes
// the discarded positions out of what the sequence may publish to the prefix
// cache, until Prefill writes them from the prompt again.
func (bp *BatchedPredictor) Rewind(id, n int) {
	s := bp.seq(id)
	if n < 0 || n > s.n {
		panic(fmt.Sprintf("transformer: Rewind(%d) outside cached length %d", n, s.n))
	}
	s.n -= n
	s.fed = min(s.fed, s.n)
}

// PrefillAll feeds a chunk to one batch sequence and returns per-position
// logits, the batched counterpart of Predictor.ExtendAll: row r is bitwise
// identical to stepping the sequence alone through Step with ids[r].
// Sequences not named are untouched, so the serving loop can run one
// request's speculative verification pass between batched decode steps.
//
// The returned rows are views into shared scratch, valid until the next
// PrefillAll call.
func (bp *BatchedPredictor) PrefillAll(id int, ids []int) [][]float64 {
	s := bp.seq(id)
	ids = truncTail(ids, bp.m.Cfg.Window-s.n)
	if len(ids) == 0 {
		return nil
	}
	rows := len(ids)
	logits := tensor.Ensure(&bp.pfAll, rows, bp.m.Cfg.Vocab)
	prefillRunAll(bp.m, bp.c, s.keys, s.vals, s.kpacks, s.n, ids, logits)
	s.n += rows
	if cap(bp.pfAllOut) < rows {
		bp.pfAllOut = make([][]float64, rows)
	}
	out := bp.pfAllOut[:rows]
	for r := range out {
		out[r] = logits.Row(r)
	}
	return out
}
