package transformer

// This file is the transformer side of speculative decoding: a verification
// pass that scores a whole block of drafted tokens at once (ExtendAll /
// PrefillAll: a chunk pass with a logits row per position), and cache
// truncation (Rewind) that un-ingests the drafted suffix a verifier rejects.
//
// Rewind is a plain length decrement — no KV rows or interleaved key-pack
// lanes are cleared — and is still bitwise-exact, because state beyond a
// sequence's length is never read before it is overwritten. Every pass
// (rowPass, prefill.go) appending rows at positions [start, start+R) of a
// state first writes those rows of the key/value caches and their pack
// lanes, position-addressed (kc.Row(pos), lane pos&15 of block pos>>4), so
// re-ingesting position p lands exactly where the stale value sat. It then
// scores each row over [0, pos] only: whole pack blocks below
// nFull = (start+R)/16, every lane of which is a position < start+R the
// state now holds, and the tail from position-major rows up to pos. A decode
// step is the case R = 1, nFull = (pos+1)/16. A stale row or lane lives at a
// position ≥ start+R and is skipped.
//
// The rewind property test in rewind_test.go checks this bit for bit against
// predictors rebuilt from scratch, across window-boundary crossings, sparse
// and dense attention, and random Append/Extend/ExtendAll/Rewind schedules.

// Rewind discards the last n cached positions, as if the tokens that
// produced them had never been fed. It panics when n is negative or exceeds
// the cached length. The next Append/Extend continues from the truncated
// position with logits bitwise identical to a predictor that never saw the
// discarded tokens.
func (p *Predictor) Rewind(n int) { p.rewind(n) }

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
	if len(p.m.chunkPass(p.c, &p.kvState, ids, &p.all, true)) == 0 {
		return nil
	}
	return p.all.rows
}

// Rewind discards the last n cached positions of batch sequence id — the
// per-sequence form of Predictor.Rewind, with the same staleness argument
// (each sequence owns its KV cache and key packs; the shared step scratch
// holds no per-position state). Rewinding into an attached prompt also takes
// the discarded positions out of what the sequence may publish to the prefix
// cache, until Prefill writes them from the prompt again.
func (bp *BatchedPredictor) Rewind(id, n int) {
	s := bp.seq(id)
	s.rewind(n)
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
	if len(bp.m.chunkPass(bp.c, &bp.seq(id).kvState, ids, &bp.pfAll, true)) == 0 {
		return nil
	}
	return bp.pfAll.rows
}
