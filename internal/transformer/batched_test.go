package transformer

import (
	"testing"

	"repro/internal/mathx"
	"repro/internal/nn"
)

// TestBatchedPredictorMatchesPredictor drives several sequences of different
// lengths through one BatchedPredictor and each alone through a Predictor;
// logits must agree bitwise at every step (the batched path reuses the same
// kernels in the same order).
func TestBatchedPredictorMatchesPredictor(t *testing.T) {
	for _, cfg := range []Config{
		{Vocab: 19, Dim: 16, Layers: 2, Heads: 2, Window: 12, Pos: PosLearned, Act: nn.GELU},
		{Vocab: 19, Dim: 16, Layers: 1, Heads: 4, Window: 12, Pos: PosSinusoidal, Act: nn.ReLU, PostNorm: true},
		{Vocab: 19, Dim: 16, Layers: 2, Heads: 2, Window: 12, Pos: PosNone, Act: nn.GELU, SparseStride: 3},
	} {
		m := MustNew(cfg, mathx.NewRNG(31))
		rng := mathx.NewRNG(32)
		// Three sequences with different lengths.
		seqs := [][]int{
			make([]int, 12),
			make([]int, 7),
			make([]int, 10),
		}
		for _, s := range seqs {
			for i := range s {
				s[i] = rng.Intn(cfg.Vocab)
			}
		}
		// Reference: each sequence alone.
		want := make([][][]float64, len(seqs))
		for si, s := range seqs {
			p := m.NewPredictor()
			for _, id := range s {
				logits := p.Append(id)
				cp := append([]float64(nil), logits...)
				want[si] = append(want[si], cp)
			}
		}
		// Batched: all sequences together; shorter ones drop out when done.
		bp := m.NewBatchedPredictor()
		handles := make([]int, len(seqs))
		for i := range seqs {
			handles[i] = bp.Add()
		}
		for step := 0; ; step++ {
			var ids, toks []int
			var who []int
			for si, s := range seqs {
				if step < len(s) {
					ids = append(ids, handles[si])
					toks = append(toks, s[step])
					who = append(who, si)
				}
			}
			if len(ids) == 0 {
				break
			}
			got := bp.Step(ids, toks)
			for i, si := range who {
				w := want[si][step]
				for o := range w {
					if got[i][o] != w[o] {
						t.Fatalf("cfg %+v: seq %d step %d logit %d: batched %v != solo %v",
							cfg, si, step, o, got[i][o], w[o])
					}
				}
			}
		}
		for si := range seqs {
			if got, want := bp.Len(handles[si]), len(seqs[si]); got != want {
				t.Fatalf("seq %d: Len = %d, want %d", si, got, want)
			}
		}
	}
}

// TestBatchedStepParityAcrossWidths pins the cross-sequence GEMM step at
// the batch sizes the E21 scaling claim is made for (1, 2, 7, 16, 33): the
// X4/X2/X1 row grouping inside matMat and the per-sequence key-pack
// scoring must leave every row bitwise identical to a solo
// Predictor.Append, at every width and every position.
func TestBatchedStepParityAcrossWidths(t *testing.T) {
	for _, cfg := range []Config{
		{Vocab: 29, Dim: 32, Layers: 2, Heads: 2, Window: 24, Pos: PosLearned, Act: nn.GELU},
		{Vocab: 29, Dim: 24, Layers: 1, Heads: 2, Window: 21, Pos: PosSinusoidal, Act: nn.Tanh, PostNorm: true}, // head dim 12, window not /16
	} {
		m := MustNew(cfg, mathx.NewRNG(91))
		rng := mathx.NewRNG(92)
		for _, batch := range []int{1, 2, 7, 16, 33} {
			steps := cfg.Window
			toks := make([][]int, batch)
			for s := range toks {
				toks[s] = make([]int, steps)
				for j := range toks[s] {
					toks[s][j] = rng.Intn(cfg.Vocab)
				}
			}
			// Reference: each sequence alone through Append.
			want := make([][][]float64, batch)
			for s := range toks {
				p := m.NewPredictor()
				for _, id := range toks[s] {
					want[s] = append(want[s], append([]float64(nil), p.Append(id)...))
				}
			}
			bp := m.NewBatchedPredictor()
			ids := make([]int, batch)
			step := make([]int, batch)
			for i := range ids {
				ids[i] = bp.Add()
			}
			for j := 0; j < steps; j++ {
				for i := range step {
					step[i] = toks[i][j]
				}
				got := bp.Step(ids, step)
				for i := range got {
					bitsEqual(t, "step-width", got[i], want[i][j])
				}
			}
		}
	}
}

// TestBatchedStepProperty fuzzes Pass against shadow solo predictors:
// random configurations (head widths incl. non-16, windows not divisible by
// 16, both norm orders, sparse masks) and random chunk lists per pass — any
// subset of the live sequences, each with one decode token, a chunk of
// random width (truncated keep-last at the window), or a chunk that ends on
// a key-pack block edge, any of them possibly all-rows; a sequence whose
// window is full is sometimes replaced by a recycled one. Every returned
// row must match the shadow's Append bitwise.
func TestBatchedStepProperty(t *testing.T) {
	rng := mathx.NewRNG(441)
	for trial := 0; trial < 25; trial++ {
		heads := 1 + rng.Intn(3)
		hd := []int{4, 8, 12, 16, 20}[rng.Intn(5)]
		cfg := Config{
			Vocab:  11 + rng.Intn(40),
			Dim:    heads * hd,
			Hidden: 8 + rng.Intn(64),
			Layers: 1 + rng.Intn(2),
			Heads:  heads,
			Window: 18 + rng.Intn(46),
			Pos:    []PosKind{PosSinusoidal, PosLearned, PosNone}[rng.Intn(3)],
			Act:    []nn.Activation{nn.ReLU, nn.Tanh, nn.GELU}[rng.Intn(3)],
		}
		if rng.Intn(4) == 0 {
			cfg.PostNorm = true
		}
		if rng.Intn(5) == 0 {
			cfg.SparseStride = 2 + rng.Intn(3)
		}
		m := MustNew(cfg, mathx.NewRNG(uint64(trial)*17+3))
		bp := m.NewBatchedPredictor()
		n := 1 + rng.Intn(6)
		ids := make([]int, n)
		shadow := make([]*Predictor, n)
		for i := range ids {
			ids[i] = bp.Add()
			shadow[i] = m.NewPredictor()
		}
		for round := 0; round < 30; round++ {
			// A random non-empty subset of the sequences with window room.
			var chunks []Chunk
			var shadows []*Predictor
			for i := range ids {
				n := shadow[i].Len()
				if n >= cfg.Window && rng.Intn(2) == 0 {
					bp.Drop(ids[i])
					ids[i], shadow[i], n = bp.Add(), m.NewPredictor(), 0
				}
				if n >= cfg.Window || rng.Intn(2) == 0 {
					continue
				}
				width := 1
				switch rng.Intn(4) {
				case 0:
					width = 1 + rng.Intn(20)
				case 1:
					width = 16 - n%16
				}
				chunks = append(chunks, Chunk{ID: ids[i], Tokens: randTokens(rng, width, cfg.Vocab), All: rng.Intn(4) == 0})
				shadows = append(shadows, shadow[i])
			}
			if len(chunks) == 0 {
				continue
			}
			got := bp.Pass(chunks)
			r := 0
			for i, c := range chunks {
				toks := truncTail(c.Tokens, cfg.Window-shadows[i].Len())
				for j, tok := range toks {
					want := shadows[i].Append(tok)
					if c.All || j == len(toks)-1 {
						bitsEqual(t, "property-pass", got[r], want)
						r++
					}
				}
			}
			if r != len(got) {
				t.Fatalf("trial %d: pass returned %d rows, want %d", trial, len(got), r)
			}
		}
	}
}

func TestBatchedPredictorDropAndReuse(t *testing.T) {
	cfg := Config{Vocab: 7, Dim: 8, Layers: 1, Heads: 2, Window: 6, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(3))
	bp := m.NewBatchedPredictor()
	a := bp.Add()
	b := bp.Add()
	if len(bp.seqs) != 2 {
		t.Fatalf("%d sequences", len(bp.seqs))
	}
	bp.Step([]int{a, b}, []int{1, 2})
	bp.Drop(a)
	if len(bp.seqs) != 1 {
		t.Fatalf("%d sequences after drop", len(bp.seqs))
	}
	// b keeps decoding after a is gone, and new sequences can join.
	c := bp.Add()
	out := bp.Step([]int{b, c}, []int{3, 4})
	if len(out) != 2 || len(out[0]) != cfg.Vocab {
		t.Fatalf("step shape %d x %d", len(out), len(out[0]))
	}
	if bp.Len(b) != 2 || bp.Len(c) != 1 {
		t.Fatalf("lengths b=%d c=%d", bp.Len(b), bp.Len(c))
	}
}

func TestBatchedPredictorPanics(t *testing.T) {
	cfg := Config{Vocab: 7, Dim: 8, Layers: 1, Heads: 2, Window: 2, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(3))
	bp := m.NewBatchedPredictor()
	id := bp.Add()
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("unknown id", func() { bp.Step([]int{99}, []int{0}) })
	expectPanic("duplicate id", func() { bp.Step([]int{id, id}, []int{0, 0}) })
	expectPanic("length mismatch", func() { bp.Step([]int{id}, []int{0, 1}) })
	expectPanic("empty chunk", func() { bp.Pass([]Chunk{{ID: id}}) })
	bp.Step([]int{id}, []int{0})
	bp.Step([]int{id}, []int{1})
	expectPanic("window exhausted", func() { bp.Step([]int{id}, []int{2}) })
}

// TestReplicaSharesWeightsNotGrads checks the data-parallel contract: a
// replica reads the parent's parameter values (updates flow through) while
// gradients stay private to each copy.
func TestReplicaSharesWeightsNotGrads(t *testing.T) {
	cfg := Config{Vocab: 11, Dim: 16, Layers: 2, Heads: 2, Window: 8, Pos: PosLearned, Act: nn.GELU}
	m := MustNew(cfg, mathx.NewRNG(5))
	r := m.Replica()
	mp, rp := m.Parameters(), r.Parameters()
	if len(mp) != len(rp) {
		t.Fatalf("parameter count %d != %d", len(mp), len(rp))
	}
	for i := range mp {
		if mp[i].Value != rp[i].Value {
			t.Fatalf("param %d: replica does not alias parent Value", i)
		}
		if mp[i].Grad == rp[i].Grad {
			t.Fatalf("param %d: replica shares parent Grad", i)
		}
	}
	input := []int{1, 2, 3, 4}
	target := []int{2, 3, 4, 5}
	lm := m.Loss(input, target).Value.Data[0]
	lr := r.Loss(input, target).Value.Data[0]
	if lm != lr {
		t.Fatalf("replica loss %v != parent loss %v", lr, lm)
	}
	// A weight edit on the parent is visible to the replica.
	mp[0].Value.Data[0] += 0.25
	if r.Parameters()[0].Value.Data[0] != mp[0].Value.Data[0] {
		t.Fatal("weight edit not visible through replica")
	}
}
