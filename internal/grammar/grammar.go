// Package grammar implements the formal-grammar substrate of the paper's
// Appendix A: context-free grammars (CFGs) and probabilistic CFGs (PCFGs),
// string generation, CYK parsing, inside probabilities, parse trees, and the
// tree-distance metric used by structural probes (§7).
//
// The Figure 3 arithmetic grammar ships as a fixture (Arithmetic).
package grammar

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mathx"
)

// Rule is one production: Lhs → Rhs[0] Rhs[1] ... with probability Prob
// (conditional on Lhs). Symbols that appear on some rule's left-hand side
// are nonterminals; everything else is a terminal.
type Rule struct {
	Lhs  string
	Rhs  []string
	Prob float64
}

// Grammar is a (P)CFG with a distinguished start symbol.
type Grammar struct {
	Start string
	Rules []Rule

	byLhs    map[string][]int // rule indices per nonterminal
	minDepth map[string]int   // minimum derivation depth, lazily computed
}

// New builds a grammar and normalizes rule probabilities per nonterminal
// (rules given with Prob 0 share the remaining mass equally; if all are 0
// the distribution is uniform). It returns an error for empty right-hand
// sides or a start symbol with no rules.
func New(start string, rules []Rule) (*Grammar, error) {
	g := &Grammar{Start: start, Rules: append([]Rule(nil), rules...), byLhs: map[string][]int{}}
	for i, r := range g.Rules {
		if len(r.Rhs) == 0 {
			return nil, fmt.Errorf("grammar: rule %d (%s) has empty rhs", i, r.Lhs)
		}
		if r.Prob < 0 {
			return nil, fmt.Errorf("grammar: rule %d (%s) has negative probability", i, r.Lhs)
		}
		g.byLhs[r.Lhs] = append(g.byLhs[r.Lhs], i)
	}
	if len(g.byLhs[start]) == 0 {
		return nil, fmt.Errorf("grammar: start symbol %q has no rules", start)
	}
	// Normalize probabilities per lhs.
	for _, idxs := range g.byLhs {
		total := 0.0
		zeros := 0
		for _, i := range idxs {
			if g.Rules[i].Prob == 0 {
				zeros++
			}
			total += g.Rules[i].Prob
		}
		switch {
		case zeros == len(idxs):
			for _, i := range idxs {
				g.Rules[i].Prob = 1 / float64(len(idxs))
			}
		case zeros > 0:
			rem := 1 - total
			if rem < 0 {
				rem = 0
			}
			for _, i := range idxs {
				if g.Rules[i].Prob == 0 {
					g.Rules[i].Prob = rem / float64(zeros)
				}
			}
			fallthrough
		default:
			total = 0
			for _, i := range idxs {
				total += g.Rules[i].Prob
			}
			for _, i := range idxs {
				g.Rules[i].Prob /= total
			}
		}
	}
	return g, nil
}

// MustNew is New that panics on error, for fixtures.
func MustNew(start string, rules []Rule) *Grammar {
	g, err := New(start, rules)
	if err != nil {
		panic(err)
	}
	return g
}

// IsNonterminal reports whether sym has productions.
func (g *Grammar) IsNonterminal(sym string) bool { return len(g.byLhs[sym]) > 0 }

// Nonterminals returns the sorted nonterminal set.
func (g *Grammar) Nonterminals() []string {
	var ns []string
	for n := range g.byLhs {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// Terminals returns the sorted terminal symbols.
func (g *Grammar) Terminals() []string {
	seen := map[string]bool{}
	var ts []string
	for _, r := range g.Rules {
		for _, s := range r.Rhs {
			if !g.IsNonterminal(s) && !seen[s] {
				seen[s] = true
				ts = append(ts, s)
			}
		}
	}
	sort.Strings(ts)
	return ts
}

// Tree is a parse tree node: a symbol, plus children for nonterminal nodes.
type Tree struct {
	Symbol   string
	Children []*Tree
}

// Leaves returns the terminal frontier of the tree, left to right.
func (t *Tree) Leaves() []string {
	if len(t.Children) == 0 {
		return []string{t.Symbol}
	}
	var out []string
	for _, c := range t.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// String renders the tree in bracketed form, e.g. (EXPR (TERM x)).
func (t *Tree) String() string {
	if len(t.Children) == 0 {
		return t.Symbol
	}
	parts := make([]string, 0, len(t.Children)+1)
	parts = append(parts, t.Symbol)
	for _, c := range t.Children {
		parts = append(parts, c.String())
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// Depth returns the height of the tree (a leaf has depth 1).
func (t *Tree) Depth() int {
	if len(t.Children) == 0 {
		return 1
	}
	best := 0
	for _, c := range t.Children {
		if d := c.Depth(); d > best {
			best = d
		}
	}
	return best + 1
}

// Generate samples a derivation from the PCFG and returns its parse tree.
// maxDepth bounds recursion: at the bound, the lowest-index rule for each
// nonterminal is chosen (grammars should list a terminating rule early).
func (g *Grammar) Generate(rng *mathx.RNG, maxDepth int) *Tree {
	return g.expand(g.Start, rng, maxDepth)
}

func (g *Grammar) expand(sym string, rng *mathx.RNG, depth int) *Tree {
	idxs := g.byLhs[sym]
	if len(idxs) == 0 {
		return &Tree{Symbol: sym}
	}
	var rule Rule
	if depth <= 0 {
		rule = g.Rules[g.shortestRule(sym)]
	} else {
		w := make([]float64, len(idxs))
		for i, ri := range idxs {
			w[i] = g.Rules[ri].Prob
		}
		rule = g.Rules[idxs[rng.Categorical(w)]]
	}
	node := &Tree{Symbol: sym}
	for _, s := range rule.Rhs {
		node.Children = append(node.Children, g.expand(s, rng, depth-1))
	}
	return node
}

// shortestRule picks the production for sym that leads to the shallowest
// complete derivation, computed by a fixed point over minimum derivation
// depths. This guarantees termination when Generate hits its depth bound.
func (g *Grammar) shortestRule(sym string) int {
	if g.minDepth == nil {
		g.computeMinDepths()
	}
	idxs := g.byLhs[sym]
	best, bestD := idxs[0], 1<<30
	for _, ri := range idxs {
		d := g.ruleDepth(g.Rules[ri])
		if d < bestD {
			best, bestD = ri, d
		}
	}
	return best
}

// ruleDepth is 1 + the max minimum depth of the rule's nonterminals.
func (g *Grammar) ruleDepth(r Rule) int {
	d := 0
	for _, s := range r.Rhs {
		if g.IsNonterminal(s) {
			md := g.minDepth[s]
			if md > d {
				d = md
			}
		}
	}
	if d >= 1<<29 {
		return 1 << 30
	}
	return d + 1
}

func (g *Grammar) computeMinDepths() {
	g.minDepth = map[string]int{}
	for n := range g.byLhs {
		g.minDepth[n] = 1 << 30
	}
	for changed := true; changed; {
		changed = false
		for n, idxs := range g.byLhs {
			for _, ri := range idxs {
				if d := g.ruleDepth(g.Rules[ri]); d < g.minDepth[n] {
					g.minDepth[n] = d
					changed = true
				}
			}
		}
	}
}

// GenerateSentence samples a derivation and returns its terminal string.
func (g *Grammar) GenerateSentence(rng *mathx.RNG, maxDepth int) []string {
	return g.Generate(rng, maxDepth).Leaves()
}

// ---- Chomsky normal form and CYK ----

// CNF is a grammar in Chomsky normal form: every rule is either
// A → B C (two nonterminals) or A → t (single terminal).
type CNF struct {
	Start  string
	Binary []Rule // A → B C
	Unary  []Rule // A → terminal
}

// ToCNF converts g to Chomsky normal form, preserving rule probabilities
// through the standard binarization/unit-elimination transforms. Introduced
// symbols are named _X<i>.
func (g *Grammar) ToCNF() *CNF {
	c := &CNF{Start: g.Start}
	fresh := 0
	newSym := func() string {
		fresh++
		return fmt.Sprintf("_X%d", fresh)
	}
	// Step 1: terminals in long rules get wrapper nonterminals.
	termWrap := map[string]string{}
	var work []Rule
	for _, r := range g.Rules {
		rhs := append([]string(nil), r.Rhs...)
		if len(rhs) >= 2 {
			for i, s := range rhs {
				if !g.IsNonterminal(s) {
					w, ok := termWrap[s]
					if !ok {
						w = "_T_" + s
						termWrap[s] = w
						work = append(work, Rule{Lhs: w, Rhs: []string{s}, Prob: 1})
					}
					rhs[i] = w
				}
			}
		}
		work = append(work, Rule{Lhs: r.Lhs, Rhs: rhs, Prob: r.Prob})
	}
	// Step 2: binarize long rules.
	var bin []Rule
	for _, r := range work {
		for len(r.Rhs) > 2 {
			ns := newSym()
			bin = append(bin, Rule{Lhs: ns, Rhs: r.Rhs[len(r.Rhs)-2:], Prob: 1})
			r.Rhs = append(append([]string(nil), r.Rhs[:len(r.Rhs)-2]...), ns)
		}
		bin = append(bin, r)
	}
	// Step 3: eliminate unit rules A → B (B nonterminal) by inlining B's
	// productions with multiplied probabilities (repeat to a fixed point;
	// cycles are truncated after a bounded number of passes).
	isNT := func(s string) bool {
		if g.IsNonterminal(s) {
			return true
		}
		return strings.HasPrefix(s, "_X") || strings.HasPrefix(s, "_T_")
	}
	for pass := 0; pass < 10; pass++ {
		changed := false
		var next []Rule
		byLhs := map[string][]Rule{}
		for _, r := range bin {
			byLhs[r.Lhs] = append(byLhs[r.Lhs], r)
		}
		for _, r := range bin {
			if len(r.Rhs) == 1 && isNT(r.Rhs[0]) && r.Rhs[0] != r.Lhs {
				for _, sub := range byLhs[r.Rhs[0]] {
					next = append(next, Rule{Lhs: r.Lhs, Rhs: sub.Rhs, Prob: r.Prob * sub.Prob})
				}
				changed = true
			} else if len(r.Rhs) == 1 && r.Rhs[0] == r.Lhs {
				changed = true // drop self-loop
			} else {
				next = append(next, r)
			}
		}
		bin = next
		if !changed {
			break
		}
	}
	for _, r := range bin {
		switch len(r.Rhs) {
		case 2:
			c.Binary = append(c.Binary, r)
		case 1:
			c.Unary = append(c.Unary, r)
		}
	}
	return c
}

// Parse runs CYK on the token sequence and returns the most probable parse
// tree (Viterbi) under the CNF grammar, or ok=false when the string is not
// in the language.
func (c *CNF) Parse(tokens []string) (*Tree, bool) {
	tree, _, ok := c.viterbi(tokens)
	return tree, ok
}

// InsideProb returns the total probability that the grammar generates
// tokens (the inside probability of the start symbol over the whole span,
// per the Inside-Outside algorithm the paper cites for parsing CMs).
func (c *CNF) InsideProb(tokens []string) float64 {
	n := len(tokens)
	if n == 0 {
		return 0
	}
	inside := make([]map[string]float64, n*n)
	cell := func(i, j int) map[string]float64 { return inside[i*n+j] }
	for i := range inside {
		inside[i] = map[string]float64{}
	}
	for i, tok := range tokens {
		for _, r := range c.Unary {
			if r.Rhs[0] == tok {
				cell(i, i)[r.Lhs] += r.Prob
			}
		}
	}
	for span := 2; span <= n; span++ {
		for i := 0; i+span <= n; i++ {
			j := i + span - 1
			for k := i; k < j; k++ {
				left, right := cell(i, k), cell(k+1, j)
				if len(left) == 0 || len(right) == 0 {
					continue
				}
				for _, r := range c.Binary {
					pl, ok1 := left[r.Rhs[0]]
					if !ok1 {
						continue
					}
					pr, ok2 := right[r.Rhs[1]]
					if !ok2 {
						continue
					}
					cell(i, j)[r.Lhs] += r.Prob * pl * pr
				}
			}
		}
	}
	return cell(0, n-1)[c.Start]
}

type backptr struct {
	rule  Rule
	split int // -1 for unary
}

func (c *CNF) viterbi(tokens []string) (*Tree, float64, bool) {
	n := len(tokens)
	if n == 0 {
		return nil, 0, false
	}
	best := make([]map[string]float64, n*n)
	back := make([]map[string]backptr, n*n)
	for i := range best {
		best[i] = map[string]float64{}
		back[i] = map[string]backptr{}
	}
	idx := func(i, j int) int { return i*n + j }
	for i, tok := range tokens {
		for _, r := range c.Unary {
			if r.Rhs[0] == tok && r.Prob > best[idx(i, i)][r.Lhs] {
				best[idx(i, i)][r.Lhs] = r.Prob
				back[idx(i, i)][r.Lhs] = backptr{rule: r, split: -1}
			}
		}
	}
	for span := 2; span <= n; span++ {
		for i := 0; i+span <= n; i++ {
			j := i + span - 1
			for k := i; k < j; k++ {
				for _, r := range c.Binary {
					pl, ok1 := best[idx(i, k)][r.Rhs[0]]
					if !ok1 {
						continue
					}
					pr, ok2 := best[idx(k+1, j)][r.Rhs[1]]
					if !ok2 {
						continue
					}
					p := r.Prob * pl * pr
					if p > best[idx(i, j)][r.Lhs] {
						best[idx(i, j)][r.Lhs] = p
						back[idx(i, j)][r.Lhs] = backptr{rule: r, split: k}
					}
				}
			}
		}
	}
	p, ok := best[idx(0, n-1)][c.Start]
	if !ok || p == 0 {
		return nil, 0, false
	}
	var build func(i, j int, sym string) *Tree
	build = func(i, j int, sym string) *Tree {
		bp := back[idx(i, j)][sym]
		if bp.split < 0 {
			return &Tree{Symbol: sym, Children: []*Tree{{Symbol: tokens[i]}}}
		}
		return &Tree{Symbol: sym, Children: []*Tree{
			build(i, bp.split, bp.rule.Rhs[0]),
			build(bp.split+1, j, bp.rule.Rhs[1]),
		}}
	}
	return build(0, n-1, c.Start), p, true
}

// Recognize reports whether tokens is in the language of the CNF grammar.
func (c *CNF) Recognize(tokens []string) bool {
	_, ok := c.Parse(tokens)
	return ok
}

// ---- Tree distances (structural-probe targets) ----

// LeafDistances returns the matrix of pairwise tree distances between the
// leaves of t: the number of edges on the path between leaf i and leaf j in
// the tree. This is the target metric of the Hewitt-Manning structural probe
// discussed in §7.
func LeafDistances(t *Tree) [][]int {
	var leaves []*Tree
	parent := map[*Tree]*Tree{}
	depth := map[*Tree]int{}
	var walk func(n *Tree, d int)
	walk = func(n *Tree, d int) {
		depth[n] = d
		if len(n.Children) == 0 {
			leaves = append(leaves, n)
			return
		}
		for _, ch := range n.Children {
			parent[ch] = n
			walk(ch, d+1)
		}
	}
	walk(t, 0)
	n := len(leaves)
	dist := make([][]int, n)
	for i := range dist {
		dist[i] = make([]int, n)
	}
	anc := func(x *Tree) []*Tree {
		var chain []*Tree
		for x != nil {
			chain = append(chain, x)
			x = parent[x]
		}
		return chain
	}
	for i := 0; i < n; i++ {
		ai := anc(leaves[i])
		aset := map[*Tree]bool{}
		for _, a := range ai {
			aset[a] = true
		}
		for j := i + 1; j < n; j++ {
			// Lowest common ancestor by walking up from j.
			x := leaves[j]
			for !aset[x] {
				x = parent[x]
			}
			d := (depth[leaves[i]] - depth[x]) + (depth[leaves[j]] - depth[x])
			dist[i][j] = d
			dist[j][i] = d
		}
	}
	return dist
}

// ---- Fixtures ----

// Arithmetic returns the paper's Figure 3 grammar for arithmetic
// expressions, with probabilities tuned so sampled expressions stay short.
//
//	EXPR → TERM + EXPR | ( EXPR ) | TERM
//	TERM → VALUE * TERM | ( EXPR ) | VALUE
//	VALUE → x | y | 1
func Arithmetic() *Grammar {
	return MustNew("EXPR", []Rule{
		{Lhs: "EXPR", Rhs: []string{"TERM", "+", "EXPR"}, Prob: 0.30},
		{Lhs: "EXPR", Rhs: []string{"(", "EXPR", ")"}, Prob: 0.05},
		{Lhs: "EXPR", Rhs: []string{"TERM"}, Prob: 0.65},
		{Lhs: "TERM", Rhs: []string{"VALUE", "*", "TERM"}, Prob: 0.30},
		{Lhs: "TERM", Rhs: []string{"(", "EXPR", ")"}, Prob: 0.05},
		{Lhs: "TERM", Rhs: []string{"VALUE"}, Prob: 0.65},
		{Lhs: "VALUE", Rhs: []string{"x"}, Prob: 0.34},
		{Lhs: "VALUE", Rhs: []string{"y"}, Prob: 0.33},
		{Lhs: "VALUE", Rhs: []string{"1"}, Prob: 0.33},
	})
}

// TinyEnglish returns a small English-like PCFG used as the "natural
// language" training distribution for scaling-law and probe experiments.
// Its vocabulary includes the royal/gender word families needed by the
// Eq. 9 analogy experiment.
func TinyEnglish() *Grammar {
	return MustNew("S", []Rule{
		{Lhs: "S", Rhs: []string{"NP", "VP"}, Prob: 1},
		{Lhs: "NP", Rhs: []string{"Det", "N"}, Prob: 0.55},
		{Lhs: "NP", Rhs: []string{"Det", "Adj", "N"}, Prob: 0.25},
		{Lhs: "NP", Rhs: []string{"Name"}, Prob: 0.20},
		{Lhs: "VP", Rhs: []string{"V", "NP"}, Prob: 0.5},
		{Lhs: "VP", Rhs: []string{"V", "NP", "PP"}, Prob: 0.2},
		{Lhs: "VP", Rhs: []string{"Vi"}, Prob: 0.3},
		{Lhs: "PP", Rhs: []string{"P", "NP"}, Prob: 1},
		{Lhs: "Det", Rhs: []string{"the"}, Prob: 0.7},
		{Lhs: "Det", Rhs: []string{"a"}, Prob: 0.3},
		{Lhs: "Adj", Rhs: []string{"royal"}, Prob: 0.25},
		{Lhs: "Adj", Rhs: []string{"old"}, Prob: 0.25},
		{Lhs: "Adj", Rhs: []string{"young"}, Prob: 0.25},
		{Lhs: "Adj", Rhs: []string{"wise"}, Prob: 0.25},
		{Lhs: "N", Rhs: []string{"king"}, Prob: 0.12},
		{Lhs: "N", Rhs: []string{"queen"}, Prob: 0.12},
		{Lhs: "N", Rhs: []string{"man"}, Prob: 0.12},
		{Lhs: "N", Rhs: []string{"woman"}, Prob: 0.12},
		{Lhs: "N", Rhs: []string{"prince"}, Prob: 0.08},
		{Lhs: "N", Rhs: []string{"princess"}, Prob: 0.08},
		{Lhs: "N", Rhs: []string{"cat"}, Prob: 0.12},
		{Lhs: "N", Rhs: []string{"dog"}, Prob: 0.12},
		{Lhs: "N", Rhs: []string{"castle"}, Prob: 0.06},
		{Lhs: "N", Rhs: []string{"garden"}, Prob: 0.06},
		{Lhs: "Name", Rhs: []string{"alice"}, Prob: 0.5},
		{Lhs: "Name", Rhs: []string{"bob"}, Prob: 0.5},
		{Lhs: "V", Rhs: []string{"sees"}, Prob: 0.3},
		{Lhs: "V", Rhs: []string{"greets"}, Prob: 0.3},
		{Lhs: "V", Rhs: []string{"rules"}, Prob: 0.2},
		{Lhs: "V", Rhs: []string{"loves"}, Prob: 0.2},
		{Lhs: "Vi", Rhs: []string{"sleeps"}, Prob: 0.5},
		{Lhs: "Vi", Rhs: []string{"waits"}, Prob: 0.5},
		{Lhs: "P", Rhs: []string{"in"}, Prob: 0.5},
		{Lhs: "P", Rhs: []string{"near"}, Prob: 0.5},
	})
}
