package sample

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

func TestGreedyPicksArgmax(t *testing.T) {
	g := Greedy{}
	if got := g.Pick([]float64{0.1, 5, -2}, mathx.NewRNG(1)); got != 1 {
		t.Errorf("greedy = %d", got)
	}
}

// TestTemperatureLimits is experiment E14: β→∞ (T→0⁺) approaches argmax,
// large T approaches uniform.
func TestTemperatureLimits(t *testing.T) {
	logits := []float64{1, 2, 4}
	rng := mathx.NewRNG(2)
	n := 20000
	count := func(strat Strategy) []float64 {
		c := make([]float64, 3)
		for i := 0; i < n; i++ {
			c[strat.Pick(logits, rng)]++
		}
		for i := range c {
			c[i] /= float64(n)
		}
		return c
	}
	cold := count(Temperature{T: 0.05})
	if cold[2] < 0.999 {
		t.Errorf("cold sampling not argmax-like: %v", cold)
	}
	hot := count(Temperature{T: 100})
	for _, f := range hot {
		if math.Abs(f-1.0/3) > 0.02 {
			t.Errorf("hot sampling not uniform: %v", hot)
		}
	}
	// T=1 matches the softmax probabilities.
	mid := count(Temperature{T: 1})
	want := mathx.Softmax(logits, 1)
	for i := range want {
		if math.Abs(mid[i]-want[i]) > 0.02 {
			t.Errorf("T=1 frequencies %v, want %v", mid, want)
		}
	}
}

func TestTemperaturePanicsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Temperature{T: 0}.Pick([]float64{1, 2}, mathx.NewRNG(1))
}

func TestTopKRestrictsSupport(t *testing.T) {
	logits := []float64{10, 9, 8, -50, -60}
	rng := mathx.NewRNG(3)
	s := TopK{K: 2, T: 1}
	for i := 0; i < 500; i++ {
		got := s.Pick(logits, rng)
		if got != 0 && got != 1 {
			t.Fatalf("top-2 sampled index %d", got)
		}
	}
	// K <= 0 falls back to full support.
	full := TopK{K: 0, T: 1}
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		seen[full.Pick([]float64{1, 1, 1}, rng)] = true
	}
	if len(seen) != 3 {
		t.Errorf("K=0 support = %v", seen)
	}
}

func TestTopPRestrictsSupport(t *testing.T) {
	// Probabilities ~ (0.6, 0.3, 0.1): nucleus at P=0.7 keeps tokens 0, 1.
	logits := []float64{math.Log(0.6), math.Log(0.3), math.Log(0.1)}
	rng := mathx.NewRNG(4)
	s := TopP{P: 0.7, T: 1}
	for i := 0; i < 500; i++ {
		got := s.Pick(logits, rng)
		if got == 2 {
			t.Fatal("nucleus leaked tail token")
		}
	}
	// P=1 keeps everything.
	all := TopP{P: 1, T: 1}
	seen := map[int]bool{}
	for i := 0; i < 5000; i++ {
		seen[all.Pick(logits, rng)] = true
	}
	if len(seen) != 3 {
		t.Errorf("P=1 support = %v", seen)
	}
}

func TestBeamSearchFindsHighProbPath(t *testing.T) {
	// Scorer: prefers token 0 at each step but gives token 1 a large bonus
	// if the previous token was 1 — greedy takes 0s; a 2-beam search should
	// discover the 1,1 path when it scores higher in total.
	next := func(prefix []int) []float64 {
		last := prefix[len(prefix)-1]
		if last == 1 {
			return []float64{0, 5}
		}
		return []float64{1.0, 0.8}
	}
	beams := BeamSearch(next, []int{0}, 2, 4)
	if len(beams) == 0 {
		t.Fatal("no beams")
	}
	best := beams[0]
	if best.Tokens[0] != 1 || best.Tokens[1] != 1 {
		t.Errorf("best beam = %v (logp %v)", best.Tokens, best.LogProb)
	}
	// Beams sorted descending.
	for i := 1; i < len(beams); i++ {
		if beams[i].LogProb > beams[i-1].LogProb {
			t.Fatal("beams unsorted")
		}
	}
}

func TestBeamWidthOneIsGreedy(t *testing.T) {
	next := func(prefix []int) []float64 {
		return []float64{0.1, 2, 0.3}
	}
	beams := BeamSearch(next, []int{0}, 3, 1)
	for _, tok := range beams[0].Tokens {
		if tok != 1 {
			t.Errorf("width-1 beam deviated: %v", beams[0].Tokens)
		}
	}
}

func TestStreamCrossEntropyPerfectPredictor(t *testing.T) {
	vocab := 5
	next := func(prefix []int) []float64 {
		logits := make([]float64, vocab)
		logits[(prefix[len(prefix)-1]+1)%vocab] = 50
		return logits
	}
	stream := []int{0, 1, 2, 3, 4, 0, 1}
	if ce := StreamCrossEntropy(next, stream); ce > 1e-6 {
		t.Errorf("perfect predictor CE = %v", ce)
	}
	uniform := func(prefix []int) []float64 { return make([]float64, vocab) }
	if pp := Perplexity(uniform, stream); math.Abs(pp-5) > 1e-9 {
		t.Errorf("uniform perplexity = %v, want 5", pp)
	}
}

func TestDecoderStopsAtStopToken(t *testing.T) {
	// Logits that always argmax to token 3.
	logits := []float64{0, 0, 0, 5, 0}
	d := NewDecoder(Greedy{}, 3, 10, mathx.NewRNG(1))
	tok, done := d.Next(logits)
	if tok != 3 || !done {
		t.Fatalf("Next = (%d, %v), want (3, true)", tok, done)
	}
	if !d.Done() || len(d.Tokens()) != 1 {
		t.Fatalf("Done=%v Tokens=%v", d.Done(), d.Tokens())
	}
}

func TestDecoderBudget(t *testing.T) {
	logits := []float64{1, 0}
	d := NewDecoder(Greedy{}, -1, 3, mathx.NewRNG(1))
	steps := 0
	for !d.Done() {
		d.Next(logits)
		steps++
	}
	if steps != 3 {
		t.Fatalf("decoder ran %d steps, want 3", steps)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Next after completion did not panic")
		}
	}()
	d.Next(logits)
}
