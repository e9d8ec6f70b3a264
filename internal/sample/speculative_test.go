package sample

import (
	"reflect"
	"testing"

	"repro/internal/mathx"
)

// fakeTarget is a deterministic SpecTarget/Stepper over an arbitrary
// history→logits function, so the acceptance machinery can be tested without
// a transformer: ExtendAll really ingests, Rewind really truncates, and the
// same function drives the plain reference decode.
type fakeTarget struct {
	logits func(hist []int) []float64
	hist   []int
}

func (f *fakeTarget) Append(id int) []float64 {
	f.hist = append(f.hist, id)
	return f.logits(f.hist)
}

func (f *fakeTarget) ExtendAll(ids []int) [][]float64 {
	rows := make([][]float64, len(ids))
	for i, id := range ids {
		f.hist = append(f.hist, id)
		rows[i] = f.logits(f.hist)
	}
	return rows
}

func (f *fakeTarget) Rewind(n int) { f.hist = f.hist[:len(f.hist)-n] }
func (f *fakeTarget) Len() int     { return len(f.hist) }

// hashLogits is a pseudo-random but deterministic history→logits function:
// structured enough that drafts sometimes agree and sometimes do not.
func hashLogits(vocab int) func(hist []int) []float64 {
	return func(hist []int) []float64 {
		h := uint64(2166136261)
		for _, id := range hist {
			h = (h ^ uint64(id+1)) * 16777619
		}
		out := make([]float64, vocab)
		for i := range out {
			h = h*6364136223846793005 + 1442695040888963407
			out[i] = float64(h>>40) / float64(1<<24) * 4
		}
		return out
	}
}

// constDrafter proposes one token in every context: the argmax of a
// context-free proposal, uniform (token 0) or peaked on one token. Almost
// every draft is wrong, so the correction path runs constantly.
type constDrafter int

func (d constDrafter) Draft([]int) int { return int(d) }

// oracleDrafter proposes the target's own argmax — high acceptance, the
// self-distilled regime.
type oracleDrafter struct{ logits func(hist []int) []float64 }

func (d oracleDrafter) Draft(ctx []int) int {
	tok, _ := mathx.ArgMax(d.logits(ctx))
	return tok
}

// drafters is every proposal quality the parity tests cover.
func drafters(lf func([]int) []float64) map[string]Drafter {
	return map[string]Drafter{
		"uniform": constDrafter(0),
		"peaked":  constDrafter(3),
		"oracle":  oracleDrafter{logits: lf},
		"nil":     nil,
	}
}

// specDecode runs a full speculative generation over a fakeTarget: prompt
// prefill, first token from the prefill logits, then Rounds until done —
// the same shape as the lm driver's loop.
func specDecode(t *testing.T, logits func([]int) []float64, prompt []int, sp *Speculative, strat Strategy, stop, maxTokens int, seed uint64) []int {
	t.Helper()
	tgt := &fakeTarget{logits: logits}
	var last []float64
	for _, id := range prompt {
		last = tgt.Append(id)
	}
	dec := NewDecoder(strat, stop, maxTokens, mathx.NewRNG(seed))
	tok, done := dec.Next(last)
	ctx := append(append([]int(nil), prompt...), tok)
	for !done {
		rr := sp.Round(tgt, dec, ctx, 1<<30)
		ctx = append(ctx, rr.Emitted...)
		done = rr.Done
		if len(rr.Emitted) == 0 {
			t.Fatal("Round emitted nothing")
		}
	}
	// The target must hold the context minus the pending token (or all of it
	// when decoding finished on an accepted draft): every rejected draft
	// rewound, nothing else lost.
	if d := len(ctx) - tgt.Len(); d != 0 && d != 1 {
		t.Fatalf("target ingested %d positions, context holds %d", tgt.Len(), len(ctx))
	}
	return append([]int(nil), dec.Tokens()...)
}

// plainDecode is the reference loop (lm.Stream's plain path over the same
// fake model).
func plainDecode(logits func([]int) []float64, prompt []int, strat Strategy, stop, maxTokens int, seed uint64) []int {
	tgt := &fakeTarget{logits: logits}
	var last []float64
	for _, id := range prompt {
		last = tgt.Append(id)
	}
	dec := NewDecoder(strat, stop, maxTokens, mathx.NewRNG(seed))
	for !dec.Done() {
		tok, done := dec.Next(last)
		if !done {
			last = tgt.Append(tok)
		}
	}
	return append([]int(nil), dec.Tokens()...)
}

// TestSpeculativeGreedyParity: greedy speculative output must be identical
// to plain greedy decode for every draft depth and drafter quality — the
// exact-match rule makes correctness independent of what the drafter
// proposes.
func TestSpeculativeGreedyParity(t *testing.T) {
	const vocab = 9
	lf := hashLogits(vocab)
	want := plainDecode(lf, []int{1, 2}, Greedy{}, -1, 30, 5)
	for name, d := range drafters(lf) {
		for _, k := range []int{1, 2, 4, 8} {
			sp := &Speculative{K: k, Drafter: d}
			got := specDecode(t, lf, []int{1, 2}, sp, Greedy{}, -1, 30, 5)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("drafter %s k=%d: speculative %v != plain %v", name, k, got, want)
			}
		}
	}
}

// TestSpeculativeExactMatchParity: stochastic strategies must reproduce
// plain decoding bit for bit too, for every drafter — verification consumes
// the RNG exactly as the plain loop does, one draw per emitted token, and
// drafting consumes none.
func TestSpeculativeExactMatchParity(t *testing.T) {
	const vocab = 9
	lf := hashLogits(vocab)
	strats := map[string]Strategy{
		"temp": Temperature{T: 0.8},
		"topk": TopK{K: 4, T: 0.9},
		"topp": TopP{P: 0.9, T: 0.7},
	}
	for name, strat := range strats {
		want := plainDecode(lf, []int{3}, strat, -1, 25, 11)
		for dname, d := range drafters(lf) {
			for _, k := range []int{1, 2, 5} {
				sp := &Speculative{K: k, Drafter: d}
				got := specDecode(t, lf, []int{3}, sp, strat, -1, 25, 11)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s drafter %s k=%d: speculative %v != plain %v", name, dname, k, got, want)
				}
				if dname == "oracle" && sp.Stats.Accepted == 0 {
					t.Errorf("%s k=%d: the oracle's drafts were never accepted", name, k)
				}
			}
		}
	}
}

// TestSpeculativeStopToken: speculation must stop exactly where plain
// decoding stops, on the stop token, for greedy and stochastic strategies.
func TestSpeculativeStopToken(t *testing.T) {
	const vocab = 6
	lf := hashLogits(vocab)
	for _, strat := range []Strategy{Greedy{}, Temperature{T: 1}} {
		want := plainDecode(lf, []int{1}, strat, 2, 40, 9)
		if len(want) == 40 || want[len(want)-1] != 2 {
			t.Fatalf("%T: the fixture must stop on the stop token before the budget: %v", strat, want)
		}
		sp := &Speculative{K: 4, Drafter: constDrafter(0)}
		got := specDecode(t, lf, []int{1}, sp, strat, 2, 40, 9)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T stop: speculative %v != plain %v", strat, got, want)
		}
	}
}

// TestSpeculativeStatsAccounting pins the bookkeeping: drafted totals match
// K·rounds (full-depth rounds), accepted ≤ drafted, the histogram rows sum
// to the drafting rounds, and emitted counts line up with accepted+1.
func TestSpeculativeStatsAccounting(t *testing.T) {
	const vocab = 9
	lf := hashLogits(vocab)
	sp := &Speculative{K: 3, Drafter: oracleDrafter{logits: lf}}
	got := specDecode(t, lf, []int{1, 2}, sp, Greedy{}, -1, 40, 5)
	if len(got) != 40 {
		t.Fatalf("decoded %d tokens, want 40", len(got))
	}
	st := sp.Stats
	if st.Rounds == 0 || st.Drafted == 0 {
		t.Fatalf("no drafting recorded: %+v", st)
	}
	if st.Accepted > st.Drafted {
		t.Fatalf("accepted %d > drafted %d", st.Accepted, st.Drafted)
	}
	var histSum, histTok uint64
	for i, c := range st.AcceptHist {
		histSum += c
		histTok += uint64(i) * c
	}
	if histSum == 0 || histSum > st.Rounds {
		t.Fatalf("histogram mass %d vs rounds %d", histSum, st.Rounds)
	}
	if histTok != st.Accepted {
		t.Fatalf("histogram-weighted accepted %d != %d", histTok, st.Accepted)
	}
}
