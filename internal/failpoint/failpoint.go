// Package failpoint is the serving stack's fault-injection registry: named
// sites wired through the hot paths (HTTP handlers, the router's relay and
// probe loops, the continuous-batching loop) evaluate an installed fault
// plan and, when a rule activates, inject a failure — an error return, added
// latency, a panic, or a dropped connection — exactly where a real fault
// would surface. The chaos scenarios (internal/fleettest's TestChaos,
// TestChurn and TestRouterHA) and the robustness tests arm seeded plans and
// assert the stack's failure invariants: every request reaches exactly one
// terminal outcome, a panicking request never takes the worker down, and
// unaffected requests are bitwise identical to a fault-free run.
//
// The registry is process-global (the production call sites must not thread
// a handle through every layer) and disarmed by default. Disarmed, a site
// evaluation is one atomic load and an immediate return — no map lookup, no
// lock, no allocation — so the sites can stay compiled into release builds;
// TestDisarmedInjectZeroAlloc and BenchmarkDisarmedInject pin that cost.
//
// Plans are deterministic: every rule draws its activation decisions from
// its own splitmix64 stream seeded from (plan seed, site, rule index), so a
// pinned seed yields the same fault schedule per site-hit sequence. Under
// concurrency the interleaving of hits across requests still varies — chaos
// assertions must be invariants, not golden fault logs.
package failpoint

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mathx"
)

// Site names wired through the serving stack. They live here, not in the
// packages that fire them, so chaos plans and the site inventory in
// DESIGN.md have one authoritative list (and so arming a plan can reject
// typos via Known).
const (
	// HTTPGenerate fires at POST /v1/generate entry, before the body is
	// parsed. Error → 500; Drop → the connection is severed.
	HTTPGenerate = "httpapi/generate"
	// HTTPStreamPreSSE fires at POST /v1/stream entry, before the body is
	// parsed and long before the SSE headers are committed. Error → 500
	// (a proper status, though not one the router retries: it fails over
	// only on 502/503/504); Drop → the connection is severed.
	HTTPStreamPreSSE = "httpapi/stream/pre-sse"
	// HTTPStreamMid fires on every streamed token after the SSE headers
	// are out. Error → in-band error frame; Drop → the connection is
	// severed mid-stream (what a crashing worker looks like to a router).
	HTTPStreamMid = "httpapi/stream/mid"
	// RouterRelay fires per relay attempt in the router, before the
	// upstream request is sent. Error → the attempt fails as a transport
	// error would (passive failure detection, retry to the next replica).
	RouterRelay = "router/relay"
	// RouterProbe fires per active health probe. Error → the probe fails,
	// driving ejection without touching the worker.
	RouterProbe = "router/probe"
	// RouterRegister fires in the router's membership handlers, once per
	// /v1/register or /v1/deregister call before the body is parsed.
	// Error → 500 (the worker's join loop backs off and retries); Drop →
	// the control-plane connection is severed; Latency → a slow control
	// plane that delays lease renewal.
	RouterRegister = "router/register"
	// JoinHeartbeat fires per worker-side register/heartbeat attempt in
	// the httpapi join loop, before the HTTP call leaves the worker.
	// Error/Drop → the attempt fails and the loop retries with jittered
	// backoff; Latency → a heartbeat that almost misses its lease.
	JoinHeartbeat = "httpapi/join/heartbeat"
	// RouterPeerSend fires per outgoing anti-entropy push-pull exchange,
	// before the HTTP call leaves the router. Error/Drop → the exchange
	// fails and the next anti-entropy tick retries — a partitioned peer
	// link; Latency → a slow cross-router network.
	RouterPeerSend = "router/peer-send"
	// RouterPeerRecv fires in the router's POST /v1/sync handler before
	// the peer's records are parsed. Error → 500 (the sender counts a
	// failed exchange); Drop → the connection is severed; Latency → a slow
	// merge.
	RouterPeerRecv = "router/peer-recv"
	// ServePrefill fires per prompt chunk in the batching loop, before the
	// pass that would carry it, attributed to the request whose prompt is
	// being ingested. Panic → that request is evicted and the pass runs
	// without its chunk; the batch and server keep running.
	ServePrefill = "serve/prefill"
	// ServeStep fires per forward pass (decode rows plus prompt chunk). A
	// fault here cannot be attributed to one request: the whole active
	// batch fails and the loop rebuilds its predictor — the
	// catastrophic-but-survivable path.
	ServeStep = "serve/step"
	// ServeSample fires per sampled token, attributed to the sampling
	// request — the cheapest way to panic exactly one victim.
	ServeSample = "serve/sample"
)

// Sites is the inventory of every site compiled into the serving stack.
func Sites() []string {
	return []string{
		HTTPGenerate, HTTPStreamPreSSE, HTTPStreamMid,
		RouterRelay, RouterProbe, RouterRegister, JoinHeartbeat,
		RouterPeerSend, RouterPeerRecv,
		ServePrefill, ServeStep, ServeSample,
	}
}

// Known reports whether name is a compiled-in site.
func Known(name string) bool {
	for _, s := range Sites() {
		if s == name {
			return true
		}
	}
	return false
}

// Kind selects what an activated rule injects.
type Kind int

const (
	// KindError makes Inject return an injected-failure error.
	KindError Kind = iota
	// KindLatency makes Inject sleep for the rule's Sleep, then proceed.
	KindLatency
	// KindPanic makes Inject panic with a *Panicked value.
	KindPanic
	// KindDrop makes Inject return ErrDrop; HTTP sites translate it into
	// severing the client connection.
	KindDrop
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindLatency:
		return "latency"
	case KindPanic:
		return "panic"
	case KindDrop:
		return "drop"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ErrInjected is the root of every injected error; errors.Is against it
// distinguishes chaos faults from organic failures in test assertions.
var ErrInjected = errors.New("failpoint: injected failure")

// ErrDrop marks a KindDrop activation. It wraps ErrInjected.
var ErrDrop = fmt.Errorf("drop connection: %w", ErrInjected)

// Panicked is the value a KindPanic activation panics with.
type Panicked struct{ Site string }

func (p *Panicked) Error() string {
	return fmt.Sprintf("failpoint: injected panic at %s: %v", p.Site, ErrInjected)
}

// Unwrap lets errors.Is(p, ErrInjected) hold when the panic value is later
// folded into an error chain.
func (p *Panicked) Unwrap() error { return ErrInjected }

// Rule schedules one fault kind at one site. The zero Prob means 1 (fire on
// every eligible hit); After skips the first hits; Count caps activations
// (0 = unlimited). Activation draws from a per-rule seeded stream, so two
// rules on the same site are independent.
type Rule struct {
	Site  string
	Kind  Kind
	Prob  float64       // activation probability per hit after After (0 → 1)
	After int           // hits to let pass untouched first
	Count int           // max activations, 0 = unlimited
	Sleep time.Duration // KindLatency pause
	Msg   string        // optional error-message override for KindError
}

// Plan is a complete fault schedule: a seed and the rules it drives.
type Plan struct {
	Seed  uint64
	Rules []Rule
}

// SiteStats is one site's observability snapshot.
type SiteStats struct {
	Hits  uint64 `json:"hits"`  // times the site was evaluated while armed
	Fired uint64 `json:"fired"` // times a rule activated
}

// rule is one armed rule plus its private activation stream and budget.
type rule struct {
	Rule
	rng   *mathx.RNG
	fired int
}

// site is the armed per-site state.
type site struct {
	mu    sync.Mutex
	rules []*rule
	hits  uint64
	fired uint64
}

var (
	// armed is the disarmed fast path: zero means no plan is installed and
	// Inject returns after this one load.
	armed atomic.Int32

	mu    sync.Mutex
	sites map[string]*site
)

// Arm installs plan, replacing any previous one. Unknown site names are
// rejected so a typo cannot silently disarm a chaos schedule.
func Arm(plan Plan) error {
	for _, r := range plan.Rules {
		if !Known(r.Site) {
			return fmt.Errorf("failpoint: unknown site %q", r.Site)
		}
		if r.Prob < 0 || r.Prob > 1 {
			return fmt.Errorf("failpoint: rule at %s: probability %v outside [0,1]", r.Site, r.Prob)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	sites = make(map[string]*site)
	for i, r := range plan.Rules {
		st := sites[r.Site]
		if st == nil {
			st = &site{}
			sites[r.Site] = st
		}
		// Per-rule stream: seed, site, and rule index mixed through the
		// same splitmix-based RNG the rest of the repo uses, so a pinned
		// plan seed reproduces every rule's decisions.
		seed := plan.Seed ^ hashString(r.Site) ^ (uint64(i+1) * 0x9e3779b97f4a7c15)
		st.rules = append(st.rules, &rule{Rule: r, rng: mathx.NewRNG(seed)})
	}
	armed.Store(int32(len(plan.Rules)))
	return nil
}

// Disarm removes the installed plan; every site returns to the single-
// atomic-load fast path.
func Disarm() {
	mu.Lock()
	defer mu.Unlock()
	armed.Store(0)
	sites = nil
}

// Armed reports whether a plan with at least one rule is installed.
func Armed() bool { return armed.Load() != 0 }

// Stats snapshots hit/fired counters per site that saw traffic while armed.
func Stats() map[string]SiteStats {
	mu.Lock()
	defer mu.Unlock()
	out := make(map[string]SiteStats, len(sites))
	for name, st := range sites {
		st.mu.Lock()
		if st.hits > 0 {
			out[name] = SiteStats{Hits: st.hits, Fired: st.fired}
		}
		st.mu.Unlock()
	}
	return out
}

// Inject evaluates the named site against the installed plan. Disarmed (the
// production state) it is one atomic load. Armed, an activated rule injects
// its fault: KindLatency sleeps and proceeds (nil), KindError returns an
// error wrapping ErrInjected, KindDrop returns ErrDrop, and KindPanic
// panics with a *Panicked — exercising the caller's recovery path exactly
// as an organic panic would.
func Inject(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	return inject(name)
}

func inject(name string) error {
	mu.Lock()
	st := sites[name]
	mu.Unlock()
	if st == nil {
		return nil
	}
	st.mu.Lock()
	st.hits++
	var act *rule
	for _, r := range st.rules {
		if int(st.hits) <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.Prob != 0 && r.Prob != 1 && r.rng.Float64() >= r.Prob {
			continue
		}
		r.fired++
		st.fired++
		act = r
		break
	}
	st.mu.Unlock()
	if act == nil {
		return nil
	}
	switch act.Kind {
	case KindLatency:
		time.Sleep(act.Sleep)
		return nil
	case KindPanic:
		panic(&Panicked{Site: name})
	case KindDrop:
		return ErrDrop
	default:
		if act.Msg != "" {
			return fmt.Errorf("failpoint: %s at %s: %w", act.Msg, name, ErrInjected)
		}
		return fmt.Errorf("failpoint: fault at %s: %w", name, ErrInjected)
	}
}

// hashString is FNV-1a, enough to decorrelate per-site rule streams.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
