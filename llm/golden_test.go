package llm_test

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/transformer"
	"repro/llm"
)

// goldenModel trains the pinned E18/E19-shape checkpoint once per binary;
// both golden tests decode from the identical weights.
var goldenModel = sync.OnceValues(func() (*llm.LLM, error) {
	lines := llm.SyntheticCorpus(120, 11)
	cfg := llm.Config{
		Tokenizer: llm.WordTok,
		Model: llm.ModelConfig{
			Dim: 32, Layers: 2, Heads: 2, Window: 32,
			Pos: transformer.PosLearned, Act: nn.GELU,
		},
		Steps: 30, BatchSize: 2, Seed: 7,
	}
	model, _, err := llm.Train(lines, cfg)
	return model, err
})

// TestGenerationBitwiseGolden pins the sampled token streams for a fixed
// (checkpoint, seed, options) tuple to values recorded before the compiled
// decode fast path landed (PR 3). Decode-path optimizations are layout and
// reuse changes only — any arithmetic drift anywhere in the tokenizer →
// transformer → sampler stack changes these streams and fails this test.
//
// The configuration is the E18/E19 serving shape; the expected tokens were
// produced by the pre-compile Predictor and sort-based TopK/TopP.
func TestGenerationBitwiseGolden(t *testing.T) {
	model, err := goldenModel()
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		name   string
		strat  llm.Strategy
		text   string
		tokens []int
	}{
		{"greedy", llm.Greedy(), "the royal the old the royal the royal the",
			[]int{2, 4, 28, 2, 4, 18, 4, 28, 2, 4, 28, 4}},
		{"temp", llm.Temperature(0.8), "young dog the wise garden the prince the",
			[]int{11, 12, 2, 4, 14, 24, 2, 4, 2, 5, 2, 4}},
		{"topk", llm.TopK(5, 0.8), "man rules the man man rules the the sees the",
			[]int{8, 27, 4, 8, 8, 27, 4, 2, 4, 22, 4, 2}},
		{"topp", llm.TopP(0.9, 0.8), "young princess the a royal the royal sees the man",
			[]int{11, 23, 2, 4, 2, 7, 28, 4, 28, 22, 4, 8}},
	}
	// The batched serving path must reproduce the same pinned streams at
	// every decode width the E21 scaling sweep makes claims for: the
	// cross-sequence GEMM step regroups the arithmetic (X4/X2/X1 row
	// fusion, shared weight streams) but may not change one bit of any
	// sequence's logits. Each width fires `width` concurrent requests
	// cycling through the pinned strategies at a server whose batch admits
	// them all.
	for _, width := range []int{1, 2, 7, 16, 33} {
		srv := llm.NewServer(model, llm.ServerConfig{MaxBatch: width})
		var wg sync.WaitGroup
		for j := 0; j < width; j++ {
			g := golden[j%len(golden)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := srv.Do(context.Background(), llm.NewGenRequest("the king",
					llm.WithMaxTokens(12), llm.WithStrategy(g.strat), llm.WithSeed(3)))
				if err != nil {
					t.Errorf("width %d %s: %v", width, g.name, err)
					return
				}
				if res.Text != g.text || !reflect.DeepEqual(res.Tokens, g.tokens) {
					t.Errorf("width %d %s: batched serving drifted:\n got %q %v\nwant %q %v",
						width, g.name, res.Text, res.Tokens, g.text, g.tokens)
				}
			}()
		}
		wg.Wait()
		srv.Close()
	}

	for _, g := range golden {
		opts := []llm.GenOption{
			llm.WithMaxTokens(12), llm.WithStrategy(g.strat), llm.WithSeed(3),
		}
		res, err := model.Gen("the king", opts...)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if res.Text != g.text || !reflect.DeepEqual(res.Tokens, g.tokens) {
			t.Errorf("%s: Gen drifted from the pre-fast-path output:\n got %q %v\nwant %q %v",
				g.name, res.Text, res.Tokens, g.text, g.tokens)
		}
		// Stream must deliver the same stream, piece-concatenated.
		var pieces []string
		sres, err := model.Stream(context.Background(), "the king", func(tok llm.Token) error {
			pieces = append(pieces, tok.Text)
			return nil
		}, opts...)
		if err != nil {
			t.Fatalf("%s stream: %v", g.name, err)
		}
		if sres.Text != g.text || strings.Join(pieces, "") != g.text {
			t.Errorf("%s: Stream drifted: result %q, pieces %q", g.name, sres.Text, strings.Join(pieces, ""))
		}
	}
}
