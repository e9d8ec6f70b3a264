// Command bench is the serving benchmark of record: it self-hosts the real
// fleet (batching servers, worker HTTP handlers, router) in this process on
// loopback listeners, drives /v1/stream through the router with seeded
// traffic, checks served completions against lm.Gen, and reports the
// end-to-end metrics (-trace 0) or the per-layer breakdown (-trace 1) that
// BENCHMARK.json names. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/lm"
	"repro/internal/mathx"
)

// setUps is how many times a run sets the fleet up; setup_s is their quiet
// value (the fastest of five) and the last one serves the timed section. The
// benchmark format asks for several: it judges a later change on setup_s,
// and one set-up is a few tenths of a second that a single stall of the
// machine doubles. All of them are printed as context, the cold one first.
const setUps = 5

// verified is how many completed requests per driven section are recomputed
// with lm.Gen.
const verified = 32

// errDeadline marks a workload that overran its hard deadline of three times
// its measuring time plus a fixed allowance for set-up.
var errDeadline = errors.New("workload deadline exceeded")

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// verify recomputes a seeded sample of the successful requests in outs with
// the unbatched reference path and returns the ids whose served completion
// differs from it.
func verify(model *core.LLM, g *generator, outs []outcome) map[int]bool {
	wrong := map[int]bool{}
	checked := 0
	for _, i := range mathx.NewRNG(g.seed).Perm(len(outs)) {
		o := outs[i]
		if o.status != statusOK {
			continue
		}
		if checked++; checked > verified {
			break
		}
		r := g.at(o.id)
		ref, err := lm.Gen(model, r.prompt, r.options()...)
		if err != nil || ref.Text != o.completion || len(ref.Tokens) != o.tokens {
			wrong[o.id] = true
		}
	}
	return wrong
}

// runEndToEnd measures one workload with tracing off. Beside the bounded
// metrics it returns notes: lines of context that are printed but not judged.
func runEndToEnd(ctx context.Context, g *generator, dur time.Duration) (map[string]metric, []string, tally, error) {
	var f *fleet
	var setups []float64
	for i := 0; i < setUps; i++ {
		if f != nil {
			f.Close()
		}
		var took time.Duration
		var err error
		if f, took, err = setUp(ctx, g); err != nil {
			return nil, nil, tally{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	defer f.Close()
	cal := &calibration{}
	cal.probe()
	wins := drive(ctx, g, dur, f.viaRouter(g))
	cal.probe()
	if err := ctx.Err(); err != nil {
		return nil, nil, tally{}, err
	}
	var outs []outcome
	var wall time.Duration
	for _, w := range wins {
		outs = append(outs, w.outs...)
		wall += w.wall
	}
	wrong := verify(f.model, g, outs)
	whole := summarize(g.w, outs, wall, wrong)
	m, err := endToEnd(g.w, wins, whole, wrong)
	if err != nil {
		return nil, nil, tally{}, err
	}
	m["setup_s"] = metric{quiet(setups, false), "s"}
	notes := []string{
		fmt.Sprintf("windows %d of %d requests", len(wins), perWindow),
		fmt.Sprintf("setups_s %.4f s (context: every set-up, the cold one first)", setups),
		fmt.Sprintf("machine_speed %.3f ratio (context: 1 = the reference machine's fast phase)", cal.speed()),
	}
	// Client-side TPOT is printed, not bounded: see README, "TPOT".
	for _, p := range []float64{50, 95} {
		if v, err := percentile(whole.tpot, p); err == nil {
			notes = append(notes, fmt.Sprintf("tpot_p%g_ms %v ms (context: frames coalesce on the client)", p, v))
		}
	}
	return m, notes, whole, nil
}

// runOne runs one workload at one trace setting under its deadline, prints
// its metrics as `name value unit` lines and then the result line.
func runOne(w workload, seed uint64, dur time.Duration, trace bool, outDir string) (result, error) {
	ctx, cancel := context.WithTimeoutCause(context.Background(), 3*dur+30*time.Second, errDeadline)
	defer cancel()
	g := newGenerator(w, seed)
	var m map[string]metric
	var notes []string
	var t tally
	var err error
	if trace {
		m, t, err = runTraced(ctx, g, dur, outDir)
	} else {
		m, notes, t, err = runEndToEnd(ctx, g, dur)
	}
	if cause := context.Cause(ctx); errors.Is(cause, errDeadline) {
		err = cause
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	fmt.Printf("%s (trace %v, seed %d): %s\n", w.name, trace, seed, t)
	for _, line := range notes {
		fmt.Println(line)
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%s %v %s\n", name, m[name].Value, m[name].Unit)
	}
	res := result{Correct: t.mismatched == 0, Attempted: t.sent, Failed: t.sent - t.good(), Metrics: m}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return res, fmt.Errorf("%s: %d completions differ from lm.Gen", w.name, t.mismatched)
	}
	return res, nil
}

func main() {
	name := flag.String("workload", "all", "workload to run: all, or one of the names in BENCHMARK.json")
	seed := flag.Uint64("seed", 1, "seed of the generated traffic")
	seconds := flag.Int("seconds", 5, "measuring time of one run")
	trace := flag.String("trace", "both", "0 = end-to-end metrics, 1 = per-layer metrics and trace files, both")
	repeat := flag.Int("repeat", 0, "run the end-to-end set this many times, on consecutive seeds, and print each metric's spread against its bound in BENCHMARK.json")
	outDir := flag.String("out", "bench/out", "directory for trace-<workload>.jsonl")
	flag.Parse()

	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace, *repeat, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, dur time.Duration, trace string, repeat int, outDir string) error {
	selected := workloads
	if name != "all" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	if dur <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if repeat > 0 {
		return runRepeated(selected, seed, dur, repeat)
	}
	var traces []bool
	switch trace {
	case "0":
		traces = []bool{false}
	case "1":
		traces = []bool{true}
	case "both":
		traces = []bool{false, true}
	default:
		return fmt.Errorf("-trace must be 0, 1 or both")
	}
	for _, tr := range traces {
		for _, w := range selected {
			if _, err := runOne(w, seed, dur, tr, outDir); err != nil {
				return err
			}
		}
	}
	return nil
}

// runRepeated is the repeatability self-check: it measures each selected
// workload n times and judges every end-to-end metric's spread, the distance
// between its quartiles as a share of its median, against the metric's bound.
func runRepeated(selected []workload, seed uint64, dur time.Duration, n int) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-repeat reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	for i := 0; i < n; i++ {
		for _, w := range selected {
			res, err := runOne(w, seed+uint64(i), dur, false, "")
			if err != nil {
				return err
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
		}
	}
	fmt.Printf("\n%-14s %-12s %12s %12s %12s %8s %6s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, w := range selected {
		for _, e := range spec.EndToEnd {
			xs := values[w.name][e.Name]
			if len(xs) < 2 {
				continue
			}
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			q1, q3 := quartiles(xs)
			spread := (q3 - q1) / median(xs)
			verdict := "inside"
			if spread > e.Bound {
				verdict = "OUTSIDE"
			}
			fmt.Printf("%-14s %-12s %12.4f %12.4f %12.4f %7.2f%% %5.1f%% %s\n",
				w.name, e.Name, sorted[0], median(xs), sorted[len(sorted)-1], 100*spread, 100*e.Bound, verdict)
		}
	}
	return nil
}
