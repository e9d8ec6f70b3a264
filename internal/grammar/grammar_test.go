package grammar

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mathx"
)

func TestNewNormalizesProbabilities(t *testing.T) {
	g := MustNew("S", []Rule{
		{Lhs: "S", Rhs: []string{"a"}, Prob: 3},
		{Lhs: "S", Rhs: []string{"b"}, Prob: 1},
	})
	if math.Abs(g.Rules[0].Prob-0.75) > 1e-12 || math.Abs(g.Rules[1].Prob-0.25) > 1e-12 {
		t.Errorf("probs = %v, %v", g.Rules[0].Prob, g.Rules[1].Prob)
	}
}

func TestNewUniformWhenUnspecified(t *testing.T) {
	g := MustNew("S", []Rule{
		{Lhs: "S", Rhs: []string{"a"}},
		{Lhs: "S", Rhs: []string{"b"}},
	})
	if g.Rules[0].Prob != 0.5 || g.Rules[1].Prob != 0.5 {
		t.Errorf("probs = %v, %v, want uniform", g.Rules[0].Prob, g.Rules[1].Prob)
	}
}

func TestNewRejectsBadGrammars(t *testing.T) {
	if _, err := New("S", []Rule{{Lhs: "S", Rhs: nil}}); err == nil {
		t.Error("empty rhs accepted")
	}
	if _, err := New("S", []Rule{{Lhs: "T", Rhs: []string{"a"}}}); err == nil {
		t.Error("missing start accepted")
	}
	if _, err := New("S", []Rule{{Lhs: "S", Rhs: []string{"a"}, Prob: -1}}); err == nil {
		t.Error("negative prob accepted")
	}
}

func TestNonterminalsTerminals(t *testing.T) {
	g := Arithmetic()
	ns := g.Nonterminals()
	want := []string{"EXPR", "TERM", "VALUE"}
	if len(ns) != 3 {
		t.Fatalf("nonterminals = %v", ns)
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("nonterminals = %v", ns)
		}
	}
	ts := g.Terminals()
	for _, needed := range []string{"x", "y", "1", "+", "*", "(", ")"} {
		found := false
		for _, got := range ts {
			if got == needed {
				found = true
			}
		}
		if !found {
			t.Errorf("terminal %q missing from %v", needed, ts)
		}
	}
}

func TestGenerateProducesParseableStrings(t *testing.T) {
	g := Arithmetic()
	cnf := g.ToCNF()
	rng := mathx.NewRNG(1)
	for i := 0; i < 50; i++ {
		s := g.GenerateSentence(rng, 12)
		if !cnf.Recognize(s) {
			t.Fatalf("generated string not recognized: %v", s)
		}
	}
}

func TestGenerateRespectsDepthBound(t *testing.T) {
	g := Arithmetic()
	rng := mathx.NewRNG(2)
	for i := 0; i < 100; i++ {
		tr := g.Generate(rng, 8)
		if tr.Depth() > 60 { // depth bound plus terminating expansions
			t.Fatalf("tree depth %d exploded", tr.Depth())
		}
	}
}

func TestTreeLeavesAndString(t *testing.T) {
	tr := &Tree{Symbol: "S", Children: []*Tree{
		{Symbol: "A", Children: []*Tree{{Symbol: "a"}}},
		{Symbol: "b"},
	}}
	leaves := tr.Leaves()
	if len(leaves) != 2 || leaves[0] != "a" || leaves[1] != "b" {
		t.Errorf("leaves = %v", leaves)
	}
	if s := tr.String(); s != "(S (A a) b)" {
		t.Errorf("string = %q", s)
	}
	if tr.Depth() != 3 {
		t.Errorf("depth = %d", tr.Depth())
	}
}

// TestPrecedence is experiment E4: the Figure 3 exercise — parse y + 1 * x
// and check multiplication binds tighter than addition.
func TestPrecedence(t *testing.T) {
	g := Arithmetic()
	cnf := g.ToCNF()
	toks := []string{"y", "+", "1", "*", "x"}
	tree, ok := cnf.Parse(toks)
	if !ok {
		t.Fatal("y + 1 * x not parsed")
	}
	// The leaves must round-trip.
	got := tree.Leaves()
	for i := range toks {
		if got[i] != toks[i] {
			t.Fatalf("leaves = %v", got)
		}
	}
	// Multiplication precedence: "1 * x" must form a subtree that excludes
	// "y"; equivalently some node's frontier is exactly [1 * x].
	if !hasFrontier(tree, []string{"1", "*", "x"}) {
		t.Errorf("no subtree spans 1*x; parse = %v", tree)
	}
	if hasFrontier(tree, []string{"y", "+", "1"}) {
		t.Errorf("addition grabbed 1 before *; parse = %v", tree)
	}
}

func hasFrontier(t *Tree, want []string) bool {
	if frontierEq(t.Leaves(), want) {
		return true
	}
	for _, c := range t.Children {
		if hasFrontier(c, want) {
			return true
		}
	}
	return false
}

func frontierEq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRecognizeRejectsIllFormed(t *testing.T) {
	cnf := Arithmetic().ToCNF()
	bad := [][]string{
		{"+", "x"},
		{"x", "+"},
		{"(", "x"},
		{"x", "y"},
		{"*"},
	}
	for _, toks := range bad {
		if cnf.Recognize(toks) {
			t.Errorf("ill-formed %v recognized", toks)
		}
	}
	good := [][]string{
		{"x"},
		{"x", "+", "y"},
		// Note: "( x + y ) * 1" is NOT in Figure 3's language (the left
		// factor of * must be a VALUE), but "1 * ( x + y )" is.
		{"1", "*", "(", "x", "+", "y", ")"},
	}
	for _, toks := range good {
		if !cnf.Recognize(toks) {
			t.Errorf("well-formed %v rejected", toks)
		}
	}
}

func TestInsideProbPositiveForGrammatical(t *testing.T) {
	g := Arithmetic()
	cnf := g.ToCNF()
	if p := cnf.InsideProb([]string{"x", "+", "y"}); p <= 0 {
		t.Errorf("inside prob = %v, want > 0", p)
	}
	if p := cnf.InsideProb([]string{"+", "+"}); p != 0 {
		t.Errorf("inside prob of garbage = %v, want 0", p)
	}
}

func TestInsideProbSumsOverParses(t *testing.T) {
	// Ambiguous grammar: S → S S | a. "a a a" has 2 parses each with
	// p = P(S→SS)^2 * P(S→a)^3.
	g := MustNew("S", []Rule{
		{Lhs: "S", Rhs: []string{"S", "S"}, Prob: 0.4},
		{Lhs: "S", Rhs: []string{"a"}, Prob: 0.6},
	})
	cnf := g.ToCNF()
	got := cnf.InsideProb([]string{"a", "a", "a"})
	want := 2 * 0.4 * 0.4 * 0.6 * 0.6 * 0.6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("inside prob = %v, want %v", got, want)
	}
}

func TestTinyEnglishGeneratesAndParses(t *testing.T) {
	g := TinyEnglish()
	cnf := g.ToCNF()
	rng := mathx.NewRNG(3)
	for i := 0; i < 30; i++ {
		s := g.GenerateSentence(rng, 10)
		if len(s) < 2 {
			t.Fatalf("degenerate sentence %v", s)
		}
		if !cnf.Recognize(s) {
			t.Fatalf("sentence not in own language: %v", s)
		}
	}
}

func TestTinyEnglishHasAnalogyVocabulary(t *testing.T) {
	ts := strings.Join(TinyEnglish().Terminals(), " ")
	for _, w := range []string{"king", "queen", "man", "woman"} {
		if !strings.Contains(ts, w) {
			t.Errorf("analogy word %q missing", w)
		}
	}
}

func TestLeafDistancesLinearTree(t *testing.T) {
	// (S (A a) (B b)) — distance a↔b = 4 edges? a→A→S→B→b = 4.
	tr := &Tree{Symbol: "S", Children: []*Tree{
		{Symbol: "A", Children: []*Tree{{Symbol: "a"}}},
		{Symbol: "B", Children: []*Tree{{Symbol: "b"}}},
	}}
	d := LeafDistances(tr)
	if d[0][1] != 4 || d[1][0] != 4 {
		t.Errorf("distance = %d, want 4", d[0][1])
	}
	if d[0][0] != 0 {
		t.Errorf("self distance = %d", d[0][0])
	}
}

func TestLeafDistancesTriangleInequality(t *testing.T) {
	g := Arithmetic()
	rng := mathx.NewRNG(4)
	for trial := 0; trial < 20; trial++ {
		tr := g.Generate(rng, 8)
		d := LeafDistances(tr)
		n := len(d)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					if d[i][j] > d[i][k]+d[k][j] {
						t.Fatalf("triangle inequality violated at (%d,%d,%d)", i, j, k)
					}
				}
				if i != j && d[i][j] < 2 {
					t.Fatalf("distinct leaves at distance %d", d[i][j])
				}
			}
		}
	}
}

func TestViterbiParseIsMostProbable(t *testing.T) {
	// Ambiguous grammar with asymmetric probabilities: left-branching parse
	// should win when S→SS is applied high on the left.
	g := MustNew("S", []Rule{
		{Lhs: "S", Rhs: []string{"S", "S"}, Prob: 0.3},
		{Lhs: "S", Rhs: []string{"a"}, Prob: 0.7},
	})
	cnf := g.ToCNF()
	tree, ok := cnf.Parse([]string{"a", "a", "a"})
	if !ok {
		t.Fatal("parse failed")
	}
	if got := tree.Leaves(); len(got) != 3 {
		t.Fatalf("leaves = %v", got)
	}
}
