// Command llm-generate samples continuations with the decoding strategies
// of the paper's Eq. 8 family — greedy (temperature → 0), Boltzmann
// temperature sampling, top-k, and nucleus sampling — from any backend of
// the unified generation API: the transformer checkpoint written by
// llm-train (default), or a §5 ladder substrate (n-gram, FFN-LM, LSTM)
// trained at startup. With -stream each token is printed the moment it is
// sampled. The text is lm.Gen's, so for a checkpoint it is the completion
// llm-serve -model returns for the same request.
//
// Usage:
//
//	llm-generate -model model.json -prompt "the king" [-n 12]
//	             [-strategy greedy|temp|topk|topp] [-temp 0.8] [-k 10]
//	             [-p 0.9] [-seed 1] [-stream]
//	llm-generate -backend ngram|ffn|rnn [-corpus lines.txt] [-synthetic 500]
//	             -prompt "the king" [...]
//
// -cpuprofile and -memprofile write pprof profiles (CPU sampling over the
// whole run; heap snapshot at exit) so decoding performance work can be
// measured instead of guessed.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/lm"
	"repro/internal/sample"
	"repro/llm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("llm-generate: ")
	var (
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		backend    = flag.String("backend", "transformer", "model backend: transformer, ngram, ffn or rnn")
		modelPath  = flag.String("model", "model.json", "checkpoint path (transformer backend)")
		corpusPath = flag.String("corpus", "", "training corpus for non-transformer backends; empty = synthetic")
		synthetic  = flag.Int("synthetic", 500, "synthetic corpus size when -corpus is empty")
		prompt     = flag.String("prompt", "the", "prompt text")
		n          = flag.Int("n", 12, "tokens to generate")
		strategy   = flag.String("strategy", "temp", "greedy, temp, topk or topp")
		temp       = flag.Float64("temp", 0.8, "sampling temperature")
		k          = flag.Int("k", 10, "top-k cutoff")
		p          = flag.Float64("p", 0.9, "nucleus mass")
		seed       = flag.Uint64("seed", 1, "sampling seed")
		stream     = flag.Bool("stream", false, "print tokens as they are sampled")
	)
	flag.Parse()

	stopProfiles, err := llm.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProfiles()

	model, err := loadBackend(*backend, *modelPath, *corpusPath, *synthetic)
	if err != nil {
		log.Fatal(err)
	}

	strat, err := sample.ParseStrategy(*strategy, *temp, *p, *k)
	if err != nil {
		log.Fatal(err)
	}
	opts := []sample.Option{
		sample.WithMaxTokens(*n), sample.WithStrategy(strat), sample.WithSeed(*seed),
	}

	if *stream {
		fmt.Printf("%s ", *prompt)
		_, err := lm.Stream(context.Background(), model, *prompt, func(t sample.Token) error {
			fmt.Print(t.Text)
			return nil
		}, opts...)
		fmt.Println()
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	res, err := lm.Gen(model, *prompt, opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s %s\n", *prompt, res.Text)
}

// loadBackend resolves the -backend flag: the transformer loads its
// checkpoint; the ladder substrates train on the corpus at startup (they
// have no checkpoint format). Training uses a fixed seed so -seed varies
// only the sampling stream, never the model weights.
func loadBackend(backend, modelPath, corpusPath string, synthetic int) (lm.LanguageModel, error) {
	if backend == "transformer" {
		f, err := os.Open(modelPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return core.Load(f)
	}
	lines, err := corpusLines(corpusPath, synthetic)
	if err != nil {
		return nil, err
	}
	log.Printf("training %s backend on %d lines", backend, len(lines))
	return lm.TrainBackend(backend, lines, 42)
}

// corpusLines reads one document per line, or samples the synthetic PCFG
// corpus when no path is given.
func corpusLines(path string, synthetic int) ([]string, error) {
	if path == "" {
		return llm.SyntheticCorpus(synthetic, 42), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20) // allow documents up to 1MB per line
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			lines = append(lines, line)
		}
	}
	return lines, sc.Err()
}
