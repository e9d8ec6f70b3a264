// Command llm-bench scores a model on the synthetic benchmark suite (the
// repository's stand-in for BIG-bench, §4 of the paper) at several few-shot
// settings and prints a leaderboard. It either loads a checkpoint or trains
// a fresh tiny model on the synthetic corpus. Serving performance is
// measured by the benchmark of record (bench/) and the root Go benchmarks,
// and the chaos scenarios (E24–E26) are tests in internal/fleettest.
//
// Usage:
//
//	llm-bench [-model model.json] [-shots 0,3] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/grammar"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/transformer"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("llm-bench: ")
	var (
		modelPath = flag.String("model", "", "checkpoint path; empty = train a fresh tiny model")
		shotsFlag = flag.String("shots", "0,3", "comma-separated shot counts")
		seed      = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	var model *core.LLM
	name := "fresh-tiny"
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		model, err = core.Load(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		name = *modelPath
	} else {
		lines := corpus.PCFGText(grammar.TinyEnglish(), 400, 10, mathx.NewRNG(*seed))
		var err error
		model, _, err = core.Train(lines, core.Config{
			Tokenizer: core.WordTok,
			Model: transformer.Config{
				Dim: 32, Layers: 2, Heads: 2, Window: 16,
				Pos: transformer.PosLearned, Act: nn.GELU,
			},
			Steps: 300, Seed: *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Println("trained a fresh tiny model on the synthetic corpus")
	}

	shots, err := parseInts(*shotsFlag)
	if err != nil {
		log.Fatalf("bad -shots: %v", err)
	}

	var lb eval.Leaderboard
	for _, task := range eval.Suite(mathx.NewRNG(*seed + 1)) {
		for _, sh := range shots {
			acc := eval.ScoreTask(model, task, eval.PromptConfig{Shots: sh}, mathx.NewRNG(*seed+2))
			lb.Add(name, task.Name, sh, acc)
		}
	}
	fmt.Print(lb.Format())
}

// parseInts splits a comma-separated list of shot counts (0 = zero-shot).
func parseInts(list string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, fmt.Errorf("%d must not be negative", v)
		}
		out = append(out, v)
	}
	return out, nil
}
