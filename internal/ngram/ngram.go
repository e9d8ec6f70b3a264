// Package ngram implements the classical statistical language models of the
// paper's §3 and §5: the 1-gram frequency model (Eq. 1) and general N-gram
// models with the count-ratio estimator (Eq. 6), plus add-k smoothing,
// interpolation across orders, perplexity (Eq. 3) and sampling.
package ngram

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/mathx"
)

// Model is an N-gram language model over integer token ids.
type Model struct {
	N     int // context length + 1; N=1 is the unigram model of Eq. 1
	Vocab int

	// counts[order] maps a context key (order tokens) to next-token counts.
	counts []map[string]map[int]int
	// totals[order] maps a context key to its total count.
	totals []map[string]int

	// Smoothing configuration.
	AddK          float64   // add-k (Laplace when k=1); 0 disables
	Interpolation []float64 // per-order mixture weights, highest order last; nil disables
}

// New creates an untrained N-gram model with vocabulary size vocab.
func New(n, vocab int) *Model {
	if n < 1 {
		panic("ngram: order must be >= 1")
	}
	m := &Model{N: n, Vocab: vocab}
	m.counts = make([]map[string]map[int]int, n)
	m.totals = make([]map[string]int, n)
	for i := 0; i < n; i++ {
		m.counts[i] = map[string]map[int]int{}
		m.totals[i] = map[string]int{}
	}
	return m
}

func key(ctx []int) string {
	if len(ctx) == 0 {
		return ""
	}
	var b strings.Builder
	for i, t := range ctx {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", t)
	}
	return b.String()
}

// Train accumulates counts from the token stream for every order up to N.
// It may be called repeatedly to add data.
func (m *Model) Train(stream []int) {
	for i := range stream {
		for order := 0; order < m.N; order++ {
			if i < order {
				continue
			}
			k := key(stream[i-order : i])
			nm := m.counts[order][k]
			if nm == nil {
				nm = map[int]int{}
				m.counts[order][k] = nm
			}
			nm[stream[i]]++
			m.totals[order][k]++
		}
	}
}

// probOrder returns P(next | ctx) using exactly the given order's counts
// with add-k smoothing (k may be 0).
func (m *Model) probOrder(order int, ctx []int, next int) (float64, bool) {
	k := key(ctx)
	total := m.totals[order][k]
	count := 0
	if nm := m.counts[order][k]; nm != nil {
		count = nm[next]
	}
	if m.AddK > 0 {
		return (float64(count) + m.AddK) / (float64(total) + m.AddK*float64(m.Vocab)), true
	}
	if total == 0 {
		return 0, false
	}
	return float64(count) / float64(total), true
}

// Prob returns the model probability P(next | ctx) per Eq. 5/6, using the
// last N-1 tokens of ctx. With Interpolation set, orders are mixed; without
// it the model backs off to the longest order with observed context.
func (m *Model) Prob(ctx []int, next int) float64 {
	if len(ctx) > m.N-1 {
		ctx = ctx[len(ctx)-(m.N-1):]
	}
	if m.Interpolation != nil {
		if len(m.Interpolation) != m.N {
			panic("ngram: interpolation weights must have one entry per order")
		}
		p := 0.0
		for order := 0; order < m.N; order++ {
			use := ctx
			if len(use) > order {
				use = use[len(use)-order:]
			}
			if len(use) < order {
				continue // not enough context for this order
			}
			po, ok := m.probOrder(order, use, next)
			if ok {
				p += m.Interpolation[order] * po
			}
		}
		return p
	}
	// Backoff: longest available order whose context was observed.
	for order := min(m.N-1, len(ctx)); order >= 0; order-- {
		use := ctx[len(ctx)-order:]
		if p, ok := m.probOrder(order, use, next); ok {
			return p
		}
	}
	return 0
}

// Dist returns the full next-token distribution given ctx.
func (m *Model) Dist(ctx []int) []float64 {
	d := make([]float64, m.Vocab)
	for t := 0; t < m.Vocab; t++ {
		d[t] = m.Prob(ctx, t)
	}
	return d
}

// CrossEntropy evaluates Eq. 3 on the held-out stream: the mean negative
// log probability of each token given its preceding context. Tokens with
// zero model probability contribute the floor penalty log(vocab·1e6) to keep
// the result finite; with smoothing enabled this never triggers.
func (m *Model) CrossEntropy(stream []int) float64 {
	if len(stream) == 0 {
		return 0
	}
	total := 0.0
	floor := math.Log(float64(m.Vocab) * 1e6)
	for i := range stream {
		lo := i - (m.N - 1)
		if lo < 0 {
			lo = 0
		}
		p := m.Prob(stream[lo:i], stream[i])
		if p <= 0 {
			total += floor
		} else {
			total -= math.Log(p)
		}
	}
	return total / float64(len(stream))
}

// Perplexity is exp(CrossEntropy) — the paper's headline LM metric.
func (m *Model) Perplexity(stream []int) float64 {
	return math.Exp(m.CrossEntropy(stream))
}

// Sample draws length tokens autoregressively starting from the given
// context (which may be empty), demonstrating that N-gram models are
// generative in the paper's §3 sense.
func (m *Model) Sample(ctx []int, length int, rng *mathx.RNG) []int {
	out := append([]int(nil), ctx...)
	for step := 0; step < length; step++ {
		d := m.Dist(out)
		if mathx.Sum(d) <= 0 {
			break
		}
		out = append(out, rng.Categorical(d))
	}
	return out[len(ctx):]
}

// UnigramCounts exposes the raw unigram frequency table (Eq. 1's estimator)
// for inspection; index = token id.
func (m *Model) UnigramCounts() []int {
	out := make([]int, m.Vocab)
	if nm := m.counts[0][""]; nm != nil {
		for t, c := range nm {
			if t < m.Vocab {
				out[t] = c
			}
		}
	}
	return out
}

// DistinctContexts returns the number of distinct contexts observed at the
// highest order — the quantity whose exponential growth in N makes large-N
// models hopeless (§5).
func (m *Model) DistinctContexts() int {
	return len(m.totals[m.N-1])
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
