package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// schedule renders the first n requests of a workload as the bytes the fleet
// would receive.
func schedule(t *testing.T, name string, seed uint64, n int) []byte {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(w, seed)
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		buf.Write(g.body(g.at(i)))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := schedule(t, w.name, 7, 200), schedule(t, w.name, 7, 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different schedules", w.name)
		}
		if c := schedule(t, w.name, 8, 200); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
	}
}

func TestRequestShapes(t *testing.T) {
	for _, w := range workloads {
		g := newGenerator(w, 3)
		for i := 0; i < 300; i++ {
			r := g.at(i)
			if got := len(strings.Fields(r.prompt)); got != r.promptTokens {
				t.Fatalf("%s request %d: prompt has %d words, promptTokens says %d", w.name, i, got, r.promptTokens)
			}
			if r.promptTokens+r.maxTokens >= 320 {
				t.Fatalf("%s request %d: %d+%d tokens overflow the window", w.name, i, r.promptTokens, r.maxTokens)
			}
			if r.session >= w.sessions {
				t.Fatalf("%s request %d: session %d of %d", w.name, i, r.session, w.sessions)
			}
		}
	}
}

func TestPrefixSharing(t *testing.T) {
	prefixes := func(name string) (map[string]int, *generator) {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		g := newGenerator(w, 5)
		seen := map[string]int{}
		for i := 0; i < 400; i++ {
			words := strings.Fields(g.at(i).prompt)
			seen[strings.Join(words[:prefixTokens], " ")]++
			seen2 := strings.Join(words[:prefixTokens+shareBlock], " ")
			if i > 0 && name == "shared_prefix" && seen[seen2] > 0 {
				t.Fatalf("request %d shares more than %d tokens", i, prefixTokens)
			}
		}
		return seen, g
	}

	shared, g := prefixes("shared_prefix")
	if len(shared) != 4 {
		t.Errorf("shared_prefix: %d distinct %d-token prefixes, want 4", len(shared), prefixTokens)
	}
	// Prompts average 256 tokens, of which 192 are shared.
	if f := g.shareableFrac(400); f < 0.70 || f > 0.80 {
		t.Errorf("shared_prefix: shareable fraction %.3f, want about 0.75", f)
	}
	for i := 0; i < 400; i++ {
		if r := g.at(i); g.sessionKeys[r.session] == "" || !strings.HasPrefix(r.prompt, strings.Join(g.prefixes[r.session], " ")) {
			t.Fatalf("request %d is not keyed to its own prefix", i)
		}
	}

	unique, g := prefixes("prefill_heavy")
	if len(unique) != 400 {
		t.Errorf("prefill_heavy: %d distinct prefixes among 400 requests", len(unique))
	}
	if f := g.shareableFrac(400); f != 0 {
		t.Errorf("prefill_heavy: shareable fraction %.3f, want 0", f)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := make([]float64, 200)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if v, err := percentile(sorted, 95); err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	if v, err := percentile(sorted, 50); err != nil || v != 100 {
		t.Errorf("p50 of 1..200 = %v, %v; want 100", v, err)
	}
	if _, err := percentile(sorted[:199], 95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(sorted, 99); err == nil {
		t.Error("p99 of 200 samples has 2 beyond it and must be refused")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("a percentile of nothing must be refused")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestOneTokenReplyHasNoTPOT(t *testing.T) {
	now := time.Now()
	one := outcome{status: statusOK, tokens: 1, start: now, first: now.Add(time.Millisecond), last: now.Add(time.Millisecond)}
	if _, ok := one.tpot(); ok {
		t.Error("a one-token reply reported a time per output token")
	}
	five := one
	five.id, five.tokens, five.last = 1, 5, now.Add(9*time.Millisecond)
	if d, ok := five.tpot(); !ok || d != 2*time.Millisecond {
		t.Errorf("tpot of 5 tokens over 8 ms = %v, %v; want 2ms", d, ok)
	}
	w := workload{ttftLimit: time.Second, tpotLimit: time.Second}
	tl := summarize(w, []outcome{one, five}, time.Second, nil)
	if len(tl.ttft) != 2 || len(tl.tpot) != 1 || tl.tpot[0] != 2 {
		t.Errorf("summarize kept ttft %v and tpot %v; want two TTFTs and the one 2 ms TPOT", tl.ttft, tl.tpot)
	}
	if tl.metSLO != 2 {
		t.Errorf("%d of 2 requests met the limits; the one-token reply is judged on TTFT alone", tl.metSLO)
	}
}

func TestFailuresMissTheSLO(t *testing.T) {
	now := time.Now()
	ok := outcome{id: 0, status: statusOK, tokens: 2, start: now, first: now, last: now}
	wrong := outcome{id: 1, status: statusOK, tokens: 2, start: now, first: now, last: now}
	outs := []outcome{ok, wrong, {id: 2, status: statusShed}, {id: 3, status: statusError}}
	w := workload{ttftLimit: time.Second, tpotLimit: time.Second}
	tl := summarize(w, outs, time.Second, map[int]bool{1: true})
	if tl.sent != 4 || tl.good() != 1 || tl.metSLO != 1 || tl.shed != 1 || tl.errored != 1 || tl.mismatched != 1 {
		t.Errorf("tally %+v: want 4 sent, 1 good, 1 within limits, 1 shed, 1 errored, 1 mismatched", tl)
	}
}

func TestQuietIsATenthInFromTheBetterEnd(t *testing.T) {
	xs := make([]float64, 22)
	for i := range xs {
		xs[i] = float64((i*7)%22 + 1) // 1..22 in some order
	}
	if hi, lo := quiet(xs, true), quiet(xs, false); hi != 20 || lo != 3 {
		t.Errorf("quiet of 1..22 = %v upward, %v downward; want the third best, 20 and 3", hi, lo)
	}
	if hi, lo := quiet(xs[:5], true), quiet(xs[:5], false); hi != 22 || lo != 1 {
		t.Errorf("quiet of {1 8 15 22 7} = %v upward, %v downward; want the best, 22 and 1", hi, lo)
	}
	if v := quiet([]float64{4}, false); v != 4 {
		t.Errorf("quiet of one value = %v", v)
	}
}

// TestBenchmarkJSONRecordsTheLimits: BENCHMARK.json names exactly this
// package's workloads and states the latency limits slo_frac is judged by.
func TestBenchmarkJSONRecordsTheLimits(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := spec.Workloads[i]
		want := fmt.Sprintf("SLO: TTFT %d ms, TPOT %d ms", w.ttftLimit.Milliseconds(), w.tpotLimit.Milliseconds())
		if got.Name != w.name || !strings.Contains(got.Why, want) {
			t.Errorf("workload %d is %q in BENCHMARK.json, whose why lacks %q: %q", i, got.Name, want, got.Why)
		}
	}
}

// TestSharesCountTheWholeSection: failures confined to one window of five
// leave most windows clean, and must still show in ok_frac and slo_frac.
func TestSharesCountTheWholeSection(t *testing.T) {
	now := time.Now()
	w := workload{ttftLimit: time.Second, tpotLimit: time.Second}
	var wins []window
	var all []outcome
	for k := 0; k < 5; k++ {
		win := window{wall: time.Second}
		for i := 0; i < perWindow; i++ {
			o := outcome{id: k*perWindow + i, status: statusOK, tokens: 2, start: now, first: now.Add(time.Millisecond), last: now.Add(2 * time.Millisecond), end: now.Add(2 * time.Millisecond)}
			if k == 3 && i < 100 {
				o.status = statusShed
			}
			win.outs = append(win.outs, o)
		}
		wins = append(wins, win)
		all = append(all, win.outs...)
	}
	m, err := endToEnd(w, wins, summarize(w, all, 5*time.Second, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m["ok_frac"].Value; got != 0.95 {
		t.Errorf("ok_frac = %v with 100 of 2000 requests shed, want 0.95", got)
	}
	if got := m["slo_frac"].Value; got != 0.95 {
		t.Errorf("slo_frac = %v with 100 of 2000 requests shed, want 0.95", got)
	}
	if got := m["req_s"].Value; got != perWindow {
		t.Errorf("req_s = %v, want a clean window's %d", got, perWindow)
	}
}

// TestFleetMatchesTheReference brings the real tier up and checks the
// correctness gate from both sides: what the fleet serves at every depth
// passes it, and a tampered completion does not.
func TestFleetMatchesTheReference(t *testing.T) {
	w, err := findWorkload("shared_prefix")
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator(w, 11)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f, _, err := setUp(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, tp := range f.taps {
		tp.counting.Store(true)
	}
	for name, send := range map[string]sender{"serve": f.viaServe, "httpapi": f.viaWorkers(g), "router": f.viaRouter(g)} {
		outs := closedLoop(ctx, g, 0, 16, send)
		if len(outs) != 16 {
			t.Fatalf("%s: %d of 16 requests ran", name, len(outs))
		}
		for _, o := range outs {
			if o.status != statusOK || o.tokens != 4 || o.first.Before(o.start) || o.end.Before(o.last) {
				t.Errorf("%s: request %d: %+v", name, o.id, o)
			}
		}
		if wrong := verify(f.model, g, outs); len(wrong) != 0 {
			t.Errorf("%s: completions %v differ from lm.Gen", name, wrong)
		}
		outs[3].completion += " x"
		if wrong := verify(f.model, g, outs); len(wrong) != 1 || !wrong[outs[3].id] {
			t.Errorf("%s: a tampered completion passed the gate: %v", name, wrong)
		}
	}
	// Both HTTP depths pass the taps: the bench's own placement and the
	// router's must agree on every session's owner.
	keyed := 0
	for _, tp := range f.taps {
		for _, n := range tp.keyed {
			keyed += n
		}
	}
	if frac := f.affinityFrac(g); keyed != 32 || frac != 1 {
		t.Errorf("%d keyed requests counted, %.2f of them on their owner; want 32 and 1", keyed, frac)
	}
}
