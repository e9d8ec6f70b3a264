// Command bench-ab runs the benchmark of record on two revisions in
// alternating pairs and prints, per workload and end-to-end metric, what the
// method in bench/README.md asks for before a gain or a regression may be
// claimed: the parent's median and quartiles, the change's median, how many
// pairs the change won, and a verdict.
//
// It checks both revisions out as detached worktrees under .bench_build/ab/,
// runs `bash bench/run.sh --workload w --seed n --seconds <run_seconds>
// --trace 0` in each — the side that goes first alternates from pair to pair
// — and reads the metrics from each run's final JSON line. Workloads,
// metrics, bounds and the run length come from BENCHMARK.json in the working
// directory, which must be the root of the repository. A run that exits
// non-zero (a completion differing from lm.Gen included) aborts the
// comparison.
//
// Verdicts: "better" — over at least ten pairs the change won nine tenths
// of them (ties count for neither side) and the medians differ, in the
// metric's good direction, by more than the parent's interquartile range;
// "worse" — the change's median is worse than the parent's by more than the
// metric's bound; "unresolved" — the parent's own interquartile range is
// wider than the bound, so the pairs cannot tell; "unchanged" otherwise.
//
// Usage:
//
//	bench-ab <parent-rev> <change-rev> [-workload all] [-pairs 10] [-seed 1]
//
// An uncommitted change can be named by the commit `git stash create`
// prints.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // relative
}

// summary is one metric's paired comparison.
type summary struct {
	ParentMedian, ParentQ1, ParentQ3 float64
	ChangeMedian                     float64
	Wins, Pairs                      int
	Verdict                          string
}

// quantile returns the q-quantile of sorted by linear interpolation between
// order statistics.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// compare judges one metric over paired runs: parent[k] and change[k] are
// the two sides of pair k.
func compare(parent, change []float64, higherBetter bool, bound float64) summary {
	sign := 1.0 // turns "better" into "greater"
	if !higherBetter {
		sign = -1
	}
	s := summary{Pairs: len(parent)}
	for k := range parent {
		if sign*change[k] > sign*parent[k] {
			s.Wins++
		}
	}
	ps := append([]float64(nil), parent...)
	cs := append([]float64(nil), change...)
	sort.Float64s(ps)
	sort.Float64s(cs)
	s.ParentMedian, s.ParentQ1, s.ParentQ3 = quantile(ps, 0.5), quantile(ps, 0.25), quantile(ps, 0.75)
	s.ChangeMedian = quantile(cs, 0.5)

	iqr := s.ParentQ3 - s.ParentQ1
	gain := sign * (s.ChangeMedian - s.ParentMedian) // > 0: the change is better
	allowed := bound * s.ParentMedian
	switch {
	case s.Pairs >= 10 && 10*s.Wins >= 9*s.Pairs && gain > iqr:
		s.Verdict = "better"
	case -gain > allowed:
		s.Verdict = "worse"
	case iqr > allowed:
		s.Verdict = "unresolved"
	default:
		s.Verdict = "unchanged"
	}
	return s
}

// git runs one git command in the working directory, output to stderr.
func git(args ...string) error {
	cmd := exec.Command("git", args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd.Run()
}

// checkout makes dir a detached worktree of rev, replacing what an
// interrupted earlier run may have left there (prune drops the registration
// of a worktree whose directory is gone).
func checkout(rev, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := git("worktree", "prune"); err != nil {
		return err
	}
	return git("worktree", "add", "--detach", dir, rev)
}

// runOnce runs one workload in the checkout at dir and returns the metrics
// of its final JSON line.
func runOnce(dir, workload string, seed uint64, seconds int) (map[string]float64, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s in %s: %w\n%s", workload, dir, err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s in %s: last output line is not the result: %w", workload, dir, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s in %s: completions differ from lm.Gen", workload, dir)
	}
	m := make(map[string]float64, len(res.Metrics))
	for name, v := range res.Metrics {
		m[name] = v.Value
	}
	return m, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench-ab: ")
	if len(os.Args) < 3 {
		log.Fatal("usage: bench-ab <parent-rev> <change-rev> [-workload all] [-pairs 10] [-seed 1]")
	}
	fs := flag.NewFlagSet("bench-ab", flag.ExitOnError)
	workload := fs.String("workload", "all", "workload to compare: all, or one of the names in BENCHMARK.json")
	pairs := fs.Int("pairs", 10, "parent/change pairs per workload")
	seed := fs.Uint64("seed", 1, "workload seed, the same on both sides")
	fs.Parse(os.Args[3:])
	if *pairs < 1 {
		log.Fatal("-pairs must be positive")
	}
	if err := run(os.Args[1], os.Args[2], *workload, *pairs, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(parentRev, changeRev, workload string, pairs int, seed uint64) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var workloads []string
	for _, w := range sp.Workloads {
		if workload == "all" || workload == w.Name {
			workloads = append(workloads, w.Name)
		}
	}
	if len(workloads) == 0 {
		return fmt.Errorf("no workload %q in BENCHMARK.json", workload)
	}

	dirs := [2]string{filepath.Join(".bench_build", "ab", "parent"), filepath.Join(".bench_build", "ab", "change")}
	for side, rev := range []string{parentRev, changeRev} {
		if err := checkout(rev, dirs[side]); err != nil {
			return fmt.Errorf("checking out %s: %w", rev, err)
		}
		defer git("worktree", "remove", "--force", dirs[side])
	}

	for _, w := range workloads {
		runs := [2]map[string][]float64{{}, {}} // 0 parent, 1 change
		for k := 0; k < pairs; k++ {
			for _, side := range []int{k % 2, 1 - k%2} { // alternate who goes first
				m, err := runOnce(dirs[side], w, seed, sp.RunSeconds)
				if err != nil {
					return err
				}
				for name, v := range m {
					runs[side][name] = append(runs[side][name], v)
				}
			}
			log.Printf("%s: pair %d/%d done", w, k+1, pairs)
		}
		fmt.Printf("\n%-14s %-12s %12s %25s %12s %6s  %s\n", "workload", "metric", "parent", "[q1, q3]", "change", "wins", "verdict")
		for _, ms := range sp.EndToEnd {
			s := compare(runs[0][ms.Name], runs[1][ms.Name], ms.Better == "higher", ms.Bound)
			fmt.Printf("%-14s %-12s %12.4f %25s %12.4f %3d/%-2d  %s\n", w, ms.Name, s.ParentMedian,
				fmt.Sprintf("[%.4f, %.4f]", s.ParentQ1, s.ParentQ3), s.ChangeMedian, s.Wins, s.Pairs, s.Verdict)
		}
	}
	return nil
}
