package llm_test

import (
	"context"
	"fmt"

	"repro/llm"
)

// exampleConfig is a sub-second training configuration shared by the
// examples below.
func exampleConfig() llm.Config {
	cfg := llm.DefaultConfig()
	cfg.Model.Dim = 16
	cfg.Steps = 60
	return cfg
}

// Example is the quickstart: synthesize a corpus, train a small
// transformer, and sample a continuation with the unified options API.
func Example() {
	lines := llm.SyntheticCorpus(200, 42)
	model, curve, err := llm.Train(lines, exampleConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("trained:", curve.FinalLoss() > 0)
	res, err := model.Gen("the king",
		llm.WithMaxTokens(6), llm.WithStrategy(llm.Temperature(0.8)), llm.WithSeed(1))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("generated tokens:", len(res.Tokens))
	// Output:
	// trained: true
	// generated tokens: 6
}

// ExampleLLM_Stream streams a generation token by token: every sampled
// token is delivered as an event whose text pieces concatenate to exactly
// the final text.
func ExampleLLM_Stream() {
	lines := llm.SyntheticCorpus(200, 42)
	model, _, err := llm.Train(lines, exampleConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	var streamed string
	res, err := model.Stream(context.Background(), "the king",
		func(t llm.Token) error {
			streamed += t.Text
			return nil
		},
		llm.WithMaxTokens(5))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("pieces equal final text:", streamed == res.Text)
	// Output:
	// pieces equal final text: true
}

// ExampleTrain_workers trains with the data-parallel engine: the minibatch
// of every optimizer step is sharded across worker goroutines, and the
// shard gradients are combined with a deterministic tree-sum, so a run is
// reproducible for a fixed (Seed, Workers) pair. Workers=1 (the default)
// is bit-identical to the classic sequential loop.
func ExampleTrain_workers() {
	lines := llm.SyntheticCorpus(200, 42)
	cfg := exampleConfig()
	cfg.Workers = 4
	_, curve, err := llm.Train(lines, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("trained in parallel:", curve.FinalLoss() > 0)
	// Output:
	// trained in parallel: true
}

// ExampleServer serves a trained model: concurrent requests are coalesced
// into batched forward passes, and each result is identical to the
// corresponding direct Gen call with the same options.
func ExampleServer() {
	lines := llm.SyntheticCorpus(200, 42)
	model, _, err := llm.Train(lines, exampleConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	srv := llm.NewServer(model, llm.ServerConfig{MaxBatch: 4})
	defer srv.Close()

	opts := []llm.GenOption{llm.WithMaxTokens(5), llm.WithSeed(0)}
	served, err := srv.Gen(context.Background(), "the king", opts...)
	if err != nil {
		fmt.Println(err)
		return
	}
	direct, _ := model.Gen("the king", opts...)
	fmt.Println("matches the direct call:", served.Text == direct.Text)
	// Output:
	// matches the direct call: true
}

// ExampleNewBackendServer serves a non-transformer rung of the §5 model
// ladder through the same Server API: the backend is trained behind the
// LanguageModel interface and served by the same continuous-batching loop.
func ExampleNewBackendServer() {
	backend, err := llm.TrainBackend("ngram", llm.SyntheticCorpus(200, 42), 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	srv := llm.NewBackendServer(backend, llm.ServerConfig{})
	defer srv.Close()

	res, err := srv.Gen(context.Background(), "the king", llm.WithMaxTokens(5), llm.WithSeed(2))
	if err != nil {
		fmt.Println(err)
		return
	}
	direct, _ := llm.Gen(backend, "the king", llm.WithMaxTokens(5), llm.WithSeed(2))
	fmt.Println("served ngram matches direct:", res.Text == direct.Text)
	// Output:
	// served ngram matches direct: true
}
