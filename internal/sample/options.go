package sample

import (
	"fmt"
	"time"
)

// DefaultMaxTokens is the generation budget used when a request does not
// set one explicitly.
const DefaultMaxTokens = 12

// Options is the unified parameterization of one generation: the Eq. 8
// decoding strategy plus the bookkeeping every entry point (direct calls,
// the batched server, the eval harness, the CLIs) needs. It is the single
// request shape behind llm.GenRequest; build it with the With* functional
// options.
type Options struct {
	MaxTokens int      // tokens to generate (DefaultMaxTokens when 0)
	Strategy  Strategy // nil = Greedy
	Seed      uint64   // per-request sampling seed
	StopAtEOS bool     // stop at the sequence separator and trim it

	// Timeout is the request's end-to-end deadline, measured from
	// submission; 0 means no per-request deadline (the serving tier may
	// still apply its own default). Only the batched server enforces it;
	// direct decoding drivers ignore it.
	Timeout time.Duration
}

// Option mutates Options; the With* constructors are the public vocabulary.
type Option func(*Options)

// WithMaxTokens sets the generation budget.
func WithMaxTokens(n int) Option { return func(o *Options) { o.MaxTokens = n } }

// WithStrategy sets the decoding strategy (Greedy, Temperature, TopK, TopP).
func WithStrategy(s Strategy) Option { return func(o *Options) { o.Strategy = s } }

// WithSeed sets the sampling seed; for a fixed (model, prompt, options,
// seed) every generation path produces identical text.
func WithSeed(seed uint64) Option { return func(o *Options) { o.Seed = seed } }

// WithStop makes decoding stop at the end-of-sequence separator (answer-
// style decoding); the separator is trimmed from the result.
func WithStop() Option { return func(o *Options) { o.StopAtEOS = true } }

// WithTimeout sets the request's end-to-end deadline; see Options.Timeout.
func WithTimeout(d time.Duration) Option {
	return func(o *Options) { o.Timeout = d }
}

// BuildOptions folds opts over the defaults.
func BuildOptions(opts ...Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	if o.MaxTokens == 0 {
		o.MaxTokens = DefaultMaxTokens
	}
	if o.Strategy == nil {
		o.Strategy = Greedy{}
	}
	return o
}

// Token is one streamed generation event: the id-th sampled token of a
// request, its vocabulary id, and the piece of decoded text it contributes.
// Concatenating the Text of every event of a generation yields exactly the
// final decoded output.
type Token struct {
	Index int    `json:"index"` // 0-based position within the continuation
	ID    int    `json:"id"`    // vocabulary token id
	Text  string `json:"text"`  // decoded text piece (may be empty for specials)
}

// ValidateStrategy checks a strategy's parameters against the preconditions
// the Pick implementations enforce with panics, so front ends can reject a
// malformed request at admission (a 400) instead of letting it trip a panic
// guard inside a serving loop. nil (greedy) is valid.
func ValidateStrategy(s Strategy) error {
	switch st := s.(type) {
	case nil, Greedy:
		return nil
	case Temperature:
		if st.T <= 0 {
			return fmt.Errorf("sample: temperature %v must be positive (use greedy for T→0)", st.T)
		}
	case TopK:
		if st.K < 0 {
			return fmt.Errorf("sample: top-k %d must not be negative", st.K)
		}
		if st.T < 0 {
			return fmt.Errorf("sample: temperature %v must not be negative", st.T)
		}
	case TopP:
		if st.P < 0 || st.P > 1 {
			return fmt.Errorf("sample: top-p %v outside [0,1]", st.P)
		}
		if st.T < 0 {
			return fmt.Errorf("sample: temperature %v must not be negative", st.T)
		}
	}
	return nil
}

// ParseStrategy resolves a strategy name ("", "greedy", "temp", "topk",
// "topp") and its numeric knobs into a Strategy, applying the conventional
// defaults (temperature 0.8, k 10, p 0.9) for unset values. It is the one
// switch shared by the CLIs and the HTTP front end.
func ParseStrategy(name string, temp, p float64, k int) (Strategy, error) {
	if temp <= 0 {
		temp = 0.8
	}
	if k <= 0 {
		k = 10
	}
	if p <= 0 {
		p = 0.9
	}
	switch name {
	case "", "greedy":
		return Greedy{}, nil
	case "temp":
		return Temperature{T: temp}, nil
	case "topk":
		return TopK{K: k, T: temp}, nil
	case "topp":
		return TopP{P: p, T: temp}, nil
	default:
		return nil, fmt.Errorf("sample: unknown strategy %q (want greedy, temp, topk or topp)", name)
	}
}
