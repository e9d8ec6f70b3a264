package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sample"
)

type status int

const (
	statusError status = iota // transport error, non-200, in-band error or no done frame
	statusOK
	statusShed // 429 or 503
)

func (s status) String() string {
	return [...]string{"error", "ok", "shed"}[s]
}

// outcome is what the client saw of one request. start is the dispatch time
// in a closed loop and the due time in an open loop, so a stall is charged
// to every request it delays.
type outcome struct {
	id         int
	status     status
	tokens     int
	start      time.Time
	first      time.Time // first token frame
	last       time.Time // last token frame
	end        time.Time // done frame
	late       time.Duration
	completion string
}

// sender issues one request at some depth of the stack and consumes its
// stream.
type sender func(ctx context.Context, r request, start time.Time) outcome

func (f *fleet) viaRouter(g *generator) sender {
	return func(ctx context.Context, r request, start time.Time) outcome {
		return f.streamHTTP(ctx, f.routerURL, g.body(r), start)
	}
}

func (f *fleet) viaWorkers(g *generator) sender {
	return func(ctx context.Context, r request, start time.Time) outcome {
		return f.streamHTTP(ctx, f.workerURLs[f.place(r)], g.body(r), start)
	}
}

func (f *fleet) viaServe(ctx context.Context, r request, start time.Time) outcome {
	o := outcome{start: start}
	res, err := f.servers[f.place(r)].Stream(ctx, r.serveRequest(), func(sample.Token) error {
		o.last = time.Now()
		if o.tokens == 0 {
			o.first = o.last
		}
		o.tokens++
		return nil
	})
	if err == nil {
		o.status, o.end, o.completion = statusOK, time.Now(), res.Text
	}
	return o
}

// place is the router's placement as the depths below it replay it: a keyed
// request to its session's owner, an unkeyed one round-robin.
func (f *fleet) place(r request) int {
	if r.session >= 0 {
		return f.owner[r.session]
	}
	return r.id % len(f.servers)
}

var (
	dataPrefix  = []byte("data: ")
	tokenPrefix = []byte(`{"index":`)
)

// streamHTTP posts body to base's /v1/stream and reads the SSE reply. A token
// frame is recognised by its first key and not decoded, so that the client,
// which shares the CPUs with the fleet, stays cheap.
func (f *fleet) streamHTTP(ctx context.Context, base string, body []byte, start time.Time) outcome {
	o := outcome{start: start}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/stream", bytes.NewReader(body))
	if err != nil {
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		return o
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body) // keeps the connection reusable
		o.status = statusShed
		return o
	default:
		return o
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return o // stream ended without a done frame
		}
		payload, ok := bytes.CutPrefix(line, dataPrefix)
		if !ok {
			continue
		}
		now := time.Now()
		if bytes.HasPrefix(payload, tokenPrefix) {
			if o.tokens == 0 {
				o.first = now
			}
			o.last = now
			o.tokens++
			continue
		}
		var fin struct {
			Done       bool   `json:"done"`
			Completion string `json:"completion"`
		}
		if json.Unmarshal(payload, &fin) == nil && fin.Done {
			o.status, o.end, o.completion = statusOK, now, fin.Completion
		}
		return o
	}
}

// closedLoop sends requests first … first+n-1 of the schedule from `clients`
// clients, each taking the next unsent request as soon as its previous one
// completes.
func closedLoop(ctx context.Context, g *generator, first, n int, send sender) []outcome {
	var next atomic.Int64
	perClient := make([][]outcome, clients)
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r := g.at(first + i)
				o := send(ctx, r, time.Now())
				o.id = r.id
				perClient[c] = append(perClient[c], o)
			}
		}()
	}
	wg.Wait()
	var outs []outcome
	for _, po := range perClient {
		outs = append(outs, po...)
	}
	return outs
}

// openLoop sends requests first … first+n-1 of the schedule, evenly spaced at
// the workload's rate from one pacing goroutine, whether or not earlier ones
// have completed.
func openLoop(ctx context.Context, g *generator, first, n int, send sender) []outcome {
	interval := time.Duration(float64(time.Second) / g.w.rate)
	outs := make([]outcome, n)
	var wg sync.WaitGroup
	begin := time.Now()
	sent := 0
	for ; sent < n && ctx.Err() == nil; sent++ {
		i := sent
		r := g.at(first + i)
		due := begin.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		late := time.Since(due)
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := send(ctx, r, due)
			o.id, o.late = r.id, late
			outs[i] = o
		}()
	}
	wg.Wait()
	return outs[:sent]
}

// perWindow is the length of a window in requests. A timed section is driven
// one window at a time and every end-to-end time and rate is reduced from its
// per-window values (see quiet): this class of VM stalls for 25-80 ms every
// few seconds even when idle, and one stall moves a whole section's p95. A
// window is twice what a p95 with ten samples beyond it needs, and window k
// is requests k×perWindow … (k+1)×perWindow-1 of the schedule on every commit.
const perWindow = 400

// window is one driven stretch: what was sent and the wall time from the
// first dispatch to the last completion.
type window struct {
	outs []outcome
	wall time.Duration
}

// driveRange sends requests first … first+n-1 of g's schedule: at the
// workload's rate in an open loop, back to back from `clients` clients in a
// closed one.
func driveRange(ctx context.Context, g *generator, first, n int, send sender) window {
	begin := time.Now()
	var outs []outcome
	if g.w.rate > 0 {
		outs = openLoop(ctx, g, first, n, send)
	} else {
		outs = closedLoop(ctx, g, first, n, send)
	}
	return window{outs: outs, wall: time.Since(begin)}
}

// drive runs g's workload for about dur, window by window along one
// schedule. An open loop runs the whole windows its rate×dur arrivals fill,
// at least one; a closed loop runs windows until dur has passed.
func drive(ctx context.Context, g *generator, dur time.Duration, send sender) []window {
	count := 0
	if g.w.rate > 0 {
		count = max(1, int(g.w.rate*dur.Seconds())/perWindow)
	}
	var wins []window
	var elapsed time.Duration
	for ctx.Err() == nil && (len(wins) < count || count == 0 && elapsed < dur) {
		w := driveRange(ctx, g, len(wins)*perWindow, perWindow, send)
		wins = append(wins, w)
		elapsed += w.wall
	}
	return wins
}
