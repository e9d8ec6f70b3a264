package transformer

import (
	"math"
	"slices"
	"testing"

	"repro/internal/mathx"
	"repro/internal/nn"
)

// This file checks the prefix KV cache against the cache-free reference: a
// sequence that restored part of its prompt from the cache must hold the
// same KV rows and produce the same logits, bit for bit, as a solo Predictor
// fed the same tokens one at a time.

// kvEqual compares the first n positions of a batch sequence's KV state —
// key rows, value rows and interleaved key-pack lanes — with a solo
// predictor's, bit for bit.
func kvEqual(t *testing.T, tag string, s *batchSeq, p *Predictor) {
	t.Helper()
	if s.n != p.n {
		t.Fatalf("%s: length %d, reference %d", tag, s.n, p.n)
	}
	same := func(what string, li, hi int, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: layer %d head %d: %s differ at %d", tag, li, hi, what, i)
			}
		}
	}
	for li := range s.keys {
		for hi, kc := range s.keys[li] {
			hd := kc.Shape[1]
			same("keys", li, hi, kc.Data[:s.n*hd], p.keys[li][hi].Data[:s.n*hd])
			same("values", li, hi, s.vals[li][hi].Data[:s.n*hd], p.vals[li][hi].Data[:s.n*hd])
			got, want := s.kpacks[li][hi], p.kpacks[li][hi]
			for pos := 0; pos < s.n && (pos>>4+1)*16*hd <= len(want); pos++ {
				for i := 0; i < hd; i++ {
					at := (pos>>4)*16*hd + i*16 + pos&15
					same("key pack", li, hi, got[at:at+1], want[at:at+1])
				}
			}
		}
	}
}

// replay feeds hist to a fresh solo predictor one token at a time and
// returns it with the last logits.
func replay(m *Model, hist []int) (*Predictor, []float64) {
	p := m.NewPredictor()
	var last []float64
	for _, id := range hist {
		last = p.Append(id)
	}
	return p, last
}

func randTokens(rng *mathx.RNG, n, vocab int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = rng.Intn(vocab)
	}
	return ids
}

// prefillChunked attaches prompt to a new sequence of bp and prefills what
// the cache did not restore in random chunks, returning the handle, the
// positions restored and the final logits.
func prefillChunked(bp *BatchedPredictor, rng *mathx.RNG, prompt []int) (id, restored int, logits []float64) {
	id = bp.Add()
	restored = bp.Attach(id, prompt)
	for rest := prompt[restored:]; len(rest) > 0; {
		n := 1 + rng.Intn(len(rest))
		logits = bp.Prefill(id, rest[:n])
		rest = rest[n:]
	}
	return id, restored, logits
}

// TestPrefixCacheProperty drives one predictor through many sequence
// lifetimes whose prompts open with one of a few shared prefixes: Attach,
// then random interleavings of Prefill (random chunking), Step, PrefillAll,
// Rewind (into the prompt too) and finally Drop. After every op the logits
// and the whole KV state must equal, bitwise, a fresh solo predictor's
// Append-only replay of the surviving history — whatever the cache restored,
// published, or evicted along the way.
func TestPrefixCacheProperty(t *testing.T) {
	rng := mathx.NewRNG(9031)
	hits := 0
	for trial := 0; trial < 16; trial++ {
		cfg := randRewindConfig(rng)
		cfg.Window = 40 + rng.Intn(60)
		m := MustNew(cfg, mathx.NewRNG(uint64(trial)*31+7))
		bp := m.NewBatchedPredictor()
		if trial%4 == 3 {
			bp.prefix.capBlocks = 2 // keep evicting
		}
		prefixes := make([][]int, 3)
		for i := range prefixes {
			prefixes[i] = randTokens(rng, 17+rng.Intn(cfg.Window-30), cfg.Vocab)
		}
		for life := 0; life < 10; life++ {
			prompt := slices.Clone(prefixes[rng.Intn(len(prefixes))])
			prompt = append(prompt, randTokens(rng, rng.Intn(cfg.Window-len(prompt)-4), cfg.Vocab)...)
			id := bp.Add()
			restored := bp.Attach(id, prompt)
			if restored > 0 {
				hits++
			}
			if restored%prefixBlock != 0 || restored >= len(prompt) {
				t.Fatalf("trial %d: restored %d of a %d-token prompt", trial, restored, len(prompt))
			}
			hist := slices.Clone(prompt[:restored])
			check := func(tag string, logits []float64) {
				t.Helper()
				p, want := replay(m, hist)
				if logits != nil {
					bitsEqual(t, tag, logits, want)
				}
				kvEqual(t, tag, bp.seqs[id], p)
			}
			check("attach", nil)
			for op := 0; op < 8; op++ {
				n := bp.Len(id)
				room := cfg.Window - n
				// next draws what to feed: the prompt's own continuation
				// while some is left (mostly), else random tokens.
				next := func(k int) []int {
					if n < len(prompt) && rng.Intn(8) != 0 {
						return prompt[n:min(n+k, len(prompt))]
					}
					return randTokens(rng, k, cfg.Vocab)
				}
				switch {
				case n > 0 && (room == 0 || rng.Intn(4) == 0):
					k := 1 + rng.Intn(n)
					bp.Rewind(id, k)
					hist = hist[:n-k]
					check("rewind", nil)
				case rng.Intn(4) == 0:
					tok := next(1)
					hist = append(hist, tok[0])
					check("step", bp.Step([]int{id}, tok)[0])
				case rng.Intn(4) == 0:
					chunk := next(1 + rng.Intn(room))
					rows := bp.PrefillAll(id, chunk)
					hist = append(hist, chunk...)
					check("prefillall", rows[len(rows)-1])
				default:
					chunk := next(1 + rng.Intn(room))
					logits := bp.Prefill(id, chunk)
					hist = append(hist, chunk...)
					check("prefill", logits)
				}
			}
			bp.Drop(id)
		}
	}
	if hits == 0 {
		t.Fatal("no lifetime restored anything: the property test never exercised a cache hit")
	}
}

// TestPrefixCacheReuse pins how much a warm cache restores, over the model
// shapes the kernels branch on (head widths at and off sixteen, post-norm,
// sparse attention, which keeps no key pack): the first two sightings of a
// prefix restore nothing, later ones restore its whole blocks — rounded down
// when the shared part is not block-aligned, and short of the block holding
// the last token when the prompt is itself a cached chain — and every
// restored sequence matches the cache-free reference bitwise.
func TestPrefixCacheReuse(t *testing.T) {
	for _, cfg := range []Config{
		{Vocab: 29, Dim: 32, Layers: 2, Heads: 2, Window: 96, Pos: PosLearned, Act: nn.GELU},
		{Vocab: 29, Dim: 24, Layers: 1, Heads: 2, Window: 96, Pos: PosSinusoidal, Act: nn.ReLU, PostNorm: true},
		{Vocab: 29, Dim: 40, Layers: 2, Heads: 2, Window: 90, Pos: PosNone, Act: nn.Tanh},
		{Vocab: 29, Dim: 32, Layers: 1, Heads: 2, Window: 96, Pos: PosLearned, Act: nn.GELU, SparseStride: 3},
	} {
		m := MustNew(cfg, mathx.NewRNG(21))
		bp := m.NewBatchedPredictor()
		rng := mathx.NewRNG(22)
		run := func(tag string, prompt []int, wantRestored int) {
			t.Helper()
			id, restored, logits := prefillChunked(bp, rng, prompt)
			if restored != wantRestored {
				t.Fatalf("%+v %s: restored %d positions, want %d", cfg, tag, restored, wantRestored)
			}
			p, want := replay(m, prompt)
			bitsEqual(t, tag, logits, want)
			kvEqual(t, tag, bp.seqs[id], p)
			// Decode continues bitwise on the restored sequence.
			bitsEqual(t, tag+"/step", bp.Step([]int{id}, []int{3})[0], p.Append(3))
			bp.Drop(id)
		}
		// A 40-token shared prefix: two whole blocks and half of a third.
		prefix := randTokens(rng, 40, cfg.Vocab)
		with := func(n int) []int { return append(slices.Clone(prefix), randTokens(rng, n, cfg.Vocab)...) }
		run("first sighting", with(20), 0)
		run("second sighting", with(20), 0)
		run("warm", with(20), 32)
		run("warm, short suffix", with(1), 32)
		// A prompt that is exactly a cached chain of three blocks.
		exact := randTokens(rng, 48, cfg.Vocab)
		run("exact/first", exact, 0)
		run("exact/second", exact, 0)
		run("exact/warm", exact, 32)
		// Keep-last truncation shifts every position, so a prompt cut to its
		// tail shares no block with the chain its head produced.
		run("shifted", append(slices.Clone(exact[8:]), 5, 6, 7), 0)
		// A prompt longer than the window, which Prefill would cut itself, is
		// left alone; the sequence then behaves as one never attached.
		id := bp.Add()
		long := append(slices.Clone(exact), randTokens(rng, cfg.Window, cfg.Vocab)...)
		if n := bp.Attach(id, long); n != 0 {
			t.Fatalf("%+v: restored %d positions of a prompt longer than the window", cfg, n)
		}
		_, want := replay(m, long[len(long)-cfg.Window:])
		bitsEqual(t, "overlong", bp.Prefill(id, long), want)
		bp.Drop(id)
	}
}

// TestPrefixCacheRewindForgets pins the publishing rule on the one schedule
// that could break it: a sequence rewinds into a prompt block it had half
// prefilled, refills the gap with other tokens, and then carries on with the
// prompt. The block now holds rows the prompt's tokens did not produce, so it
// must never be offered under the prompt's name.
func TestPrefixCacheRewindForgets(t *testing.T) {
	cfg := Config{Vocab: 29, Dim: 32, Layers: 1, Heads: 2, Window: 64, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(31))
	bp := m.NewBatchedPredictor()
	rng := mathx.NewRNG(32)
	prompt := randTokens(rng, 49, cfg.Vocab)
	id, _, _ := prefillChunked(bp, rng, prompt) // first sighting of every block
	bp.Drop(id)

	id = bp.Add()
	bp.Attach(id, prompt)
	bp.Prefill(id, prompt[:30]) // block 0 is sighted again and cached
	bp.Rewind(id, 10)
	other := randTokens(rng, 10, cfg.Vocab)
	other[0] = (prompt[20] + 1) % cfg.Vocab
	bp.Prefill(id, other)
	bp.Prefill(id, prompt[30:])
	bp.Drop(id)

	id, restored, logits := prefillChunked(bp, rng, prompt)
	if restored != prefixBlock {
		t.Fatalf("restored %d positions, want only the block prefilled from the prompt alone (%d)", restored, prefixBlock)
	}
	p, want := replay(m, prompt)
	bitsEqual(t, "after rewind", logits, want)
	kvEqual(t, "after rewind", bp.seqs[id], p)
}

// TestPrefixCacheEviction runs the cache under a three-block budget: a chain
// longer than the budget keeps its head and does not thrash its own tail, a
// second chain trims the first from the tail, and a block that was evicted
// and published again is byte-identical to the first copy.
func TestPrefixCacheEviction(t *testing.T) {
	cfg := Config{Vocab: 29, Dim: 32, Layers: 2, Heads: 2, Window: 128, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(41))
	bp := m.NewBatchedPredictor()
	c := bp.prefix
	c.capBlocks = 3
	rng := mathx.NewRNG(42)
	serve := func(prompt []int) int {
		t.Helper()
		id, restored, logits := prefillChunked(bp, rng, prompt)
		_, want := replay(m, prompt)
		bitsEqual(t, "eviction", logits, want)
		bp.Drop(id)
		return restored
	}
	a := randTokens(rng, 5*prefixBlock+3, cfg.Vocab)
	serve(a)
	serve(a)
	if len(c.blocks) != 3 || c.evictions != 0 {
		t.Fatalf("a five-block chain under a three-block budget: %d blocks, %d evictions; want 3, 0", len(c.blocks), c.evictions)
	}
	if got := serve(a); got != 3*prefixBlock {
		t.Fatalf("restored %d positions of the over-long chain, want its three cached blocks", got)
	}
	if len(c.blocks) != 3 || c.evictions != 0 {
		t.Fatalf("serving the over-long chain again moved the cache: %d blocks, %d evictions", len(c.blocks), c.evictions)
	}
	tail := c.lru.newer
	if tail.parent == nil || tail.parent.parent == nil {
		t.Fatal("least recently used block is not the chain's tail")
	}
	saved := slices.Clone(tail.data)

	// A second chain of two blocks takes the first chain's two deepest.
	b := randTokens(rng, 2*prefixBlock+5, cfg.Vocab)
	serve(b)
	serve(b)
	if c.evictions != 2 || tail.data != nil {
		t.Fatalf("%d evictions after a two-block chain displaced the tail, want 2", c.evictions)
	}
	if got := serve(a); got != prefixBlock {
		t.Fatalf("restored %d positions after the tail was trimmed, want the surviving head block", got)
	}
	// That pass and the next re-sight and republish a's trimmed blocks.
	serve(a)
	e := c.blocks[tail.hash]
	if e == nil || e == tail {
		t.Fatal("the trimmed tail block was not published again")
	}
	bitsEqual(t, "republished block", e.data, saved)
}

// TestPrefixCacheCollision forces chain-hash collisions and checks that they
// cost misses, never a wrong restore: the hash here ignores the parent and
// all but a block's first token, so different blocks and different chains
// land on one name, and only the stored token ids and the parent link tell
// them apart.
func TestPrefixCacheCollision(t *testing.T) {
	cfg := Config{Vocab: 29, Dim: 32, Layers: 1, Heads: 2, Window: 64, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(51))
	bp := m.NewBatchedPredictor()
	bp.prefix.hash = func(_ uint64, tokens []int) uint64 { return uint64(tokens[0]) }
	rng := mathx.NewRNG(52)
	serve := func(tag string, prompt []int, wantRestored int) {
		t.Helper()
		for pass := 0; pass < 3; pass++ {
			id, restored, logits := prefillChunked(bp, rng, prompt)
			if pass == 2 && restored != wantRestored {
				t.Fatalf("%s: restored %d positions, want %d", tag, restored, wantRestored)
			}
			p, want := replay(m, prompt)
			bitsEqual(t, tag, logits, want)
			kvEqual(t, tag, bp.seqs[id], p)
			bp.Drop(id)
		}
	}
	block := func(first int) []int {
		return append([]int{first}, randTokens(rng, prefixBlock-1, cfg.Vocab)...)
	}
	x, y := block(1), block(2)
	xy := append(append(slices.Clone(x), y...), 9)
	serve("x y", xy, 32)
	// Same name as x, other tokens: the token compare rejects it, and the
	// slot stays x's.
	x2 := block(1)
	serve("x' y", append(append(slices.Clone(x2), y...), 9), 0)
	// A new first block followed by the cached y: y's name matches and so do
	// its tokens, but its parent is x, not z.
	z := block(3)
	serve("z y", append(append(slices.Clone(z), y...), 9), 16)
	serve("x y again", xy, 32)
}

// TestBatchedAddReusesDirtyBuffers is the parity check behind KV-buffer
// recycling: sequences dropped with every KV row and pack lane poisoned are
// handed back by Add as they are, and a second run on them — other tokens,
// other lengths, so stale rows sit beyond each new sequence's end — must
// equal fresh solo predictors bitwise, at batch widths 1, 7 and 16.
func TestBatchedAddReusesDirtyBuffers(t *testing.T) {
	cfg := Config{Vocab: 29, Dim: 32, Layers: 2, Heads: 2, Window: 48, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(61))
	rng := mathx.NewRNG(62)
	for _, width := range []int{1, 7, 16} {
		bp := m.NewBatchedPredictor()
		run := func(poison bool) {
			ids := make([]int, width)
			shadows := make([]*Predictor, width)
			for i := range ids {
				ids[i] = bp.Add()
				prompt := randTokens(rng, 1+rng.Intn(30), cfg.Vocab)
				var want []float64
				shadows[i], want = replay(m, prompt)
				bitsEqual(t, "dirty/prefill", bp.Prefill(ids[i], prompt), want)
			}
			for step := 0; step < 6; step++ {
				toks := randTokens(rng, width, cfg.Vocab)
				for i, row := range bp.Step(ids, toks) {
					bitsEqual(t, "dirty/step", row, shadows[i].Append(toks[i]))
				}
			}
			for _, id := range ids {
				s := bp.seqs[id]
				if poison {
					for li := range s.keys {
						for hi := range s.keys[li] {
							for _, kv := range [][]float64{s.keys[li][hi].Data, s.vals[li][hi].Data, s.kpacks[li][hi]} {
								for i := range kv {
									kv[i] = math.NaN()
								}
							}
						}
					}
				}
				bp.Drop(id)
			}
		}
		run(true)
		run(false)
	}
}

// TestBatchedAddAfterDropAllocsBounded extends the allocation pins to
// sequence turnover: once a sequence has been dropped, Add takes its buffers
// back from the pool instead of allocating a window of KV rows.
func TestBatchedAddAfterDropAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	cfg := Config{Vocab: 33, Dim: 32, Layers: 2, Heads: 2, Window: 512, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(5))
	bp := m.NewBatchedPredictor()
	prompt := randTokens(mathx.NewRNG(6), 40, cfg.Vocab)
	turnover := func() {
		id := bp.Add()
		bp.Prefill(id, prompt[bp.Attach(id, prompt):])
		bp.Drop(id)
	}
	for i := 0; i < 3; i++ {
		turnover() // sight the prompt twice, then run warm
	}
	if allocs := testing.AllocsPerRun(100, turnover); allocs > 1 {
		t.Errorf("Add/Attach/Prefill/Drop allocates %v times per sequence at steady state, want <= 1", allocs)
	}
}
