// Command llm-bench scores a model on the synthetic benchmark suite (the
// repository's stand-in for BIG-bench, §4 of the paper) at several few-shot
// settings and prints a leaderboard. It either loads a checkpoint or trains
// a fresh tiny model on the synthetic corpus.
//
// With -chaos it instead runs one of three fault-injection scenarios on the
// self-hosted fleet of internal/fleettest. Each drives the same seeded
// request set twice — once fault-free, once under an armed failpoint plan
// while a director kills, restarts, joins and partitions nodes — and fails
// unless its invariants hold: zero lost requests, survivors bitwise
// identical to the fault-free run, bounded recovery, and a faulted phase
// that ran on restored prefix-cache blocks. -chaos alone is the serving-path
// scenario (E24: sampler panics, a whole-batch step fault, prefill/verify
// errors, relay faults, drops, starved deadlines → BENCH_chaos.json);
// -chaos -churn is membership churn (E25: worker kill, lease expiry,
// restart, cold join, graceful leave → BENCH_chaos_churn.json);
// -chaos -router-ha is router high availability (E26: two peered routers,
// router kill and restart, gossip-only join, peer-sync partition →
// BENCH_chaos_router_ha.json). Performance is measured by the benchmark of
// record (bench/) and the root Go benchmarks, not here.
//
// Usage:
//
//	llm-bench [-model model.json] [-shots 0,3] [-seed 1]
//	llm-bench -chaos [-churn | -router-ha] [-out .] [-seed 1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

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
		outDir    = flag.String("out", ".", "with -chaos: directory for the BENCH_chaos*.json record")
		chaosMode = flag.Bool("chaos", false, "run the fault-injection chaos scenario and write BENCH_chaos.json")
		churnMode = flag.Bool("churn", false, "with -chaos: run the membership-churn scenario and write BENCH_chaos_churn.json")
		haMode    = flag.Bool("router-ha", false, "with -chaos: run the router-high-availability scenario and write BENCH_chaos_router_ha.json")
	)
	flag.Parse()

	if *chaosMode {
		run := runChaos
		switch {
		case *haMode:
			run = runRouterHA
		case *churnMode:
			run = runChurn
		}
		if err := run(*outDir, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}

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

// perfResult is one chaos scenario's machine-readable record. Fields are
// stable: downstream tooling diffs them across commits.
type perfResult struct {
	Bench    string             `json:"bench"`
	Shape    map[string]int     `json:"shape"`
	Reps     int                `json:"reps"`
	Metrics  map[string]float64 `json:"metrics"`
	UnixTime int64              `json:"unix_time"`
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

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// writeBench writes the result atomically: marshal to a temp file in the
// target directory, then rename over the destination. A crash or a
// concurrent reader (CI artifact collection, result-diffing tooling) never
// observes a truncated or half-written BENCH_*.json.
func writeBench(path string, v perfResult) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
