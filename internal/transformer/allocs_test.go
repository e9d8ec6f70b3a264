package transformer

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/mathx"
	"repro/internal/nn"
)

// TestAppendZeroAllocsSteadyState pins the decode fast path's allocation
// behavior: once a Predictor exists, Append must not touch the heap — the
// compiled weights, the preallocated KV cache, and the scratch arena cover
// every intermediate. A regression here silently reintroduces GC pressure
// on the hottest loop in the repository, so it fails rather than warns.
// testing.AllocsPerRun pins GOMAXPROCS to 1 while it measures, so this never
// reaches a fanned-out branch; TestFanOutAllocs covers Append there.
func TestAppendZeroAllocsSteadyState(t *testing.T) {
	for _, cfg := range []Config{
		{Vocab: 33, Dim: 32, Layers: 2, Heads: 2, Window: 512, Pos: PosLearned, Act: nn.GELU},
		{Vocab: 33, Dim: 32, Layers: 1, Heads: 4, Window: 512, Pos: PosSinusoidal, Act: nn.ReLU, PostNorm: true},
		{Vocab: 33, Dim: 32, Layers: 1, Heads: 2, Window: 512, Pos: PosNone, Act: nn.GELU, SparseStride: 4},
	} {
		m := MustNew(cfg, mathx.NewRNG(3))
		p := m.NewPredictor()
		rng := mathx.NewRNG(4)
		// A few warm-up tokens, then measure. The window (512) is far
		// larger than warm-up + measured appends, so no re-arm happens
		// inside the measurement.
		for i := 0; i < 4; i++ {
			p.Append(rng.Intn(cfg.Vocab))
		}
		allocs := testing.AllocsPerRun(300, func() {
			p.Append(rng.Intn(cfg.Vocab))
		})
		if allocs != 0 {
			t.Errorf("cfg %+v: Append allocates %v per token at steady state, want 0", cfg, allocs)
		}
	}
}

// TestKVBytesPerSequence pins the KV footprint at the serving benchmark's
// shape: an Add on an empty pool allocates one window of value rows and one
// of interleaved key packs per layer and head (the pack is the only key
// store), plus at most 4 KiB of slice headers, tensor structs and
// bookkeeping; and a prefix-cache block holds the same two runs for sixteen
// positions. TotalAlloc counts the whole process, so the check takes the
// fewest bytes over a few Adds, none of which finds a dropped sequence to
// reuse.
func TestKVBytesPerSequence(t *testing.T) {
	cfg := Config{Vocab: 64, Dim: 64, Layers: 2, Heads: 4, Window: 320, Pos: PosLearned, Act: nn.GELU}
	hd := cfg.Dim / cfg.Heads
	bp := MustNew(cfg, mathx.NewRNG(14)).NewBatchedPredictor()
	got := ^uint64(0)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bp.Add()
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	data := uint64(2 * cfg.Layers * cfg.Heads * cfg.keyBlocks() * 16 * hd * 8)
	if got < data || got > data+4<<10 {
		t.Errorf("Add allocates %d B, want %d B of KV data plus at most 4 KiB", got, data)
	}
	t.Logf("Add allocates %d B (%d B of KV data)", got, data)
	if got, want := newPrefixCache(cfg).blockFloats, 2*cfg.Layers*prefixBlock*cfg.Dim; got != want {
		t.Errorf("prefix block holds %d floats, want %d (values and key pack)", got, want)
	}
}

// TestCompiledCacheSharedAndInvalidated checks the compiled-view lifecycle:
// predictors share one packed snapshot, and mutating the weights through
// the sanctioned paths (InvalidateCompiled, as train.Run and
// interp.AblateHead do) makes the next predictor recompile and decode the
// new weights.
func TestCompiledCacheSharedAndInvalidated(t *testing.T) {
	cfg := Config{Vocab: 9, Dim: 16, Layers: 1, Heads: 2, Window: 8, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(11))
	p1 := m.NewPredictor()
	p2 := m.NewPredictor()
	if p1.c != p2.c {
		t.Fatal("predictors built from unchanged weights should share the compiled view")
	}
	before := append([]float64(nil), p1.Append(1)...)
	// Mutate a weight and invalidate, as every sanctioned mutator does.
	m.Output.W.Value.Data[0] += 1
	m.InvalidateCompiled()
	p3 := m.NewPredictor()
	if p3.c == p1.c {
		t.Fatal("InvalidateCompiled did not drop the cached view")
	}
	after := p3.Append(1)
	if before[0] == after[0] {
		t.Error("predictor built after invalidation still decodes the old weights")
	}
	// And the stale predictor keeps its snapshot (documented semantics).
	if got := m.NewPredictor(); got.c != p3.c {
		t.Error("rebuilt view not shared by subsequent predictors")
	}
}

// TestBatchedStepAllocsBounded pins the batched pass at zero allocations in
// steady state, at every batch size the E21 scaling benchmark sweeps and for
// a serving iteration's mixed pass (eight decode rows plus a 32-row prompt
// chunk, and plus a 64-row one, the widest pass at serve's defaults;
// rewound after each pass so the window never runs out): once the
// scratch arena has grown to the pass, the map clear, the chunk list and the
// tensor views are all reused. Each shape gets a fresh predictor, so each
// measures an arena grown to its own pass rather than to the widest shape
// before it. testing.AllocsPerRun pins GOMAXPROCS to 1 while it measures,
// so these are the serial branches only; TestFanOutAllocs measures the
// fanned-out ones.
func TestBatchedStepAllocsBounded(t *testing.T) {
	cfg := Config{Vocab: 33, Dim: 32, Layers: 2, Heads: 2, Window: 600, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(5))
	measure := func(name string, pass func()) {
		t.Helper()
		for i := 0; i < 4; i++ {
			pass() // warm the scratch
		}
		if allocs := testing.AllocsPerRun(300, pass); allocs != 0 {
			t.Errorf("%s: BatchedPredictor allocates %v per pass at steady state, want 0", name, allocs)
		}
	}
	rng := mathx.NewRNG(6)
	for _, batch := range []int{1, 2, 4, 8, 16, 32} {
		bp := m.NewBatchedPredictor()
		ids := make([]int, batch)
		toks := make([]int, batch)
		for i := range ids {
			ids[i] = bp.Add()
		}
		measure(fmt.Sprintf("batch %d", batch), func() {
			for i := range toks {
				toks[i] = rng.Intn(cfg.Vocab)
			}
			bp.Step(ids, toks)
		})
	}
	bp := m.NewBatchedPredictor()
	chunks := make([]Chunk, 9)
	for i := range chunks {
		chunks[i] = Chunk{ID: bp.Add(), Tokens: randTokens(rng, 1, cfg.Vocab)}
	}
	prompt := chunks[8].ID
	chunks[8].Tokens = randTokens(rng, 32, cfg.Vocab)
	measure("8 decode rows + a 32-row chunk", func() {
		for i := range chunks[:8] {
			chunks[i].Tokens[0] = rng.Intn(cfg.Vocab)
		}
		bp.Pass(chunks)
		bp.Rewind(prompt, 32)
	})
	bp = m.NewBatchedPredictor()
	for i := range chunks {
		chunks[i].ID = bp.Add()
	}
	prompt = chunks[8].ID
	chunks[8].Tokens = randTokens(rng, 64, cfg.Vocab)
	measure("8 decode rows + a 64-row chunk", func() {
		for i := range chunks[:8] {
			chunks[i].Tokens[0] = rng.Intn(cfg.Vocab)
		}
		bp.Pass(chunks)
		bp.Rewind(prompt, 64)
	})
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1) pin: the
// fewest heap objects one call of f allocated over runs calls, and the mean
// (rounded down, as AllocsPerRun does), at the caller's GOMAXPROCS, after as
// many warm-up calls (which fill the runtime's goroutine caches).
func mallocsPerRun(runs int, f func()) (lo, mean uint64) {
	for i := 0; i < runs; i++ {
		f()
	}
	var before, after runtime.MemStats
	lo = ^uint64(0)
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		n := after.Mallocs - before.Mallocs
		lo, mean = min(lo, n), mean+n
	}
	return lo, mean / uint64(runs)
}

// TestFanOutAllocs is the allocation pin at GOMAXPROCS 2, where a pass's
// phases can fan out by row group: a one-row Append whose attention work is
// past rowParallelWork stays serial and allocates nothing, and a fanned-out
// pass allocates a fixed number of objects — the phase closure and the
// layer index it shares, and one call record per rowParallel call, one call
// per layer plus one — whatever its row count. The pass's floor is
// compared, not its mean: a hand-off now and then refills a runtime cache,
// which the row count does not drive.
func TestFanOutAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := Config{Vocab: 33, Dim: 64, Layers: 1, Heads: 4, Window: 2304, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(8))
	rng := mathx.NewRNG(9)

	p := m.NewPredictor()
	p.Extend(randTokens(rng, 2100, cfg.Vocab))
	if _, allocs := mallocsPerRun(100, func() { p.Append(rng.Intn(cfg.Vocab)) }); allocs != 0 {
		t.Errorf("Append at context %d allocates %d per token, want 0", p.Len(), allocs)
	}
	if p.sc.attn < rowParallelWork {
		t.Fatalf("Append's attention work %d is below rowParallelWork %d: the check proves nothing", p.sc.attn, rowParallelWork)
	}

	per := map[int]uint64{}
	for _, rows := range []int{64, 128, 256} {
		bp := m.NewBatchedPredictor()
		id := bp.Add()
		bp.Prefill(id, randTokens(rng, 64, cfg.Vocab))
		chunk := []Chunk{{ID: id, Tokens: randTokens(rng, rows, cfg.Vocab)}}
		per[rows], _ = mallocsPerRun(20, func() {
			bp.Pass(chunk)
			bp.Rewind(id, rows)
		})
		if !parallelRows(cfg.Heads, bp.attn) {
			t.Fatalf("%d-row pass: attention work %d does not open the fan-out", rows, bp.attn)
		}
	}
	if per[64] == 0 || per[128] != per[64] || per[256] != per[64] {
		t.Errorf("fanned-out pass allocations by row count %v, want one positive constant", per)
	}
	t.Logf("fanned-out pass allocations by row count: %v", per)
}

// TestFanOutGateKeepsDecodeSerial pins that decode passes stay serial at the
// serving benchmark's shape on two cores: a batch of eight one-token rows at
// contexts 8 to 72 leaves both fan-out gates (the widest product and the
// attention work) closed and allocates nothing, and so does Append.
func TestFanOutGateKeepsDecodeSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := Config{Vocab: 64, Dim: 64, Layers: 2, Heads: 4, Window: 320, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(12))
	rng := mathx.NewRNG(13)
	bp := m.NewBatchedPredictor()
	ids, toks := make([]int, 8), make([]int, 8)
	for i := range ids {
		ids[i] = bp.Add()
		bp.Prefill(ids[i], randTokens(rng, 8, cfg.Vocab))
	}
	if _, allocs := mallocsPerRun(32, func() {
		for i := range toks {
			toks[i] = rng.Intn(cfg.Vocab)
		}
		bp.Step(ids, toks)
	}); allocs != 0 {
		t.Errorf("8-row decode pass allocates %d, want 0", allocs)
	}
	if n := bp.Len(ids[0]); n != 72 {
		t.Fatalf("decode passes ended at context %d, want 72", n)
	}
	if rowFanOut(m.Cfg, len(ids)) || parallelRows(cfg.Heads, bp.attn) {
		t.Errorf("8-row decode pass at context 72 opens a fan-out: row phases %v, heads %v",
			rowFanOut(m.Cfg, len(ids)), parallelRows(cfg.Heads, bp.attn))
	}

	p := m.NewPredictor()
	p.Extend(randTokens(rng, 40, cfg.Vocab))
	if _, allocs := mallocsPerRun(32, func() { p.Append(rng.Intn(cfg.Vocab)) }); allocs != 0 {
		t.Errorf("Append allocates %d per token, want 0", allocs)
	}
}
