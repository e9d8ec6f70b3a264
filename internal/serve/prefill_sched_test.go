package serve

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/lm"
	"repro/internal/sample"
)

// fakeBatch records the loop's exact predictor call sequence, so the
// scheduling tests can assert the chunked-prefill and speculative-round
// policies (bounded chunks, at most one chunk or round between decode
// steps) independent of model arithmetic. Zero logits make Greedy sample
// token 0 deterministically. Per-slot lengths track Prefill/PrefillAll/
// Step/Rewind so the speculative scheduling test can assert window
// accounting too.
type fakeBatch struct {
	vocab int
	next  int
	ops   []string    // "P<len>" per Prefill, "S<rows>" per Step, "V<len>" per PrefillAll, "R<n>" per Rewind
	lens  map[int]int // ingested positions per live slot
}

func (f *fakeBatch) Add() int {
	if f.lens == nil {
		f.lens = make(map[int]int)
	}
	id := f.next
	f.next++
	f.lens[id] = 0
	return id
}

func (f *fakeBatch) Drop(id int) { delete(f.lens, id) }

// Attach and PrefixBlocks are the predictor without a prefix cache: nothing
// restored, nothing resident.
func (f *fakeBatch) Attach(int, []int) int       { return 0 }
func (f *fakeBatch) PrefixBlocks() (int, uint64) { return 0, 0 }

func (f *fakeBatch) Step(ids, toks []int) [][]float64 {
	f.ops = append(f.ops, fmt.Sprintf("S%d", len(ids)))
	out := make([][]float64, len(ids))
	for i, id := range ids {
		f.lens[id]++
		out[i] = make([]float64, f.vocab)
	}
	return out
}

func (f *fakeBatch) Prefill(id int, ids []int) []float64 {
	f.ops = append(f.ops, fmt.Sprintf("P%d", len(ids)))
	f.lens[id] += len(ids)
	return make([]float64, f.vocab)
}

func (f *fakeBatch) PrefillAll(id int, ids []int) [][]float64 {
	f.ops = append(f.ops, fmt.Sprintf("V%d", len(ids)))
	f.lens[id] += len(ids)
	out := make([][]float64, len(ids))
	for i := range out {
		out[i] = make([]float64, f.vocab)
	}
	return out
}

func (f *fakeBatch) Rewind(id, n int) {
	f.ops = append(f.ops, fmt.Sprintf("R%d", n))
	if n < 0 || n > f.lens[id] {
		panic("fakeBatch: rewind out of range")
	}
	f.lens[id] -= n
}

func (f *fakeBatch) Len(id int) int { return f.lens[id] }

// TestPrefillChunkScheduling pins the serving loop's interleaving policy:
// prompts are ingested in chunks of at most PrefillChunk tokens, at most
// one chunk runs between consecutive decode steps (so a mid-decode request
// is never stalled by more than one chunk of someone else's prompt), and a
// finished prompt samples its first token from the prefill logits and joins
// the decode batch the same iteration.
func TestPrefillChunkScheduling(t *testing.T) {
	m := testLLM(t)
	s := newServer(m, m, Config{MaxBatch: 4, CoalesceWait: -1, PrefillChunk: 4})
	fake := &fakeBatch{vocab: m.Tok.VocabSize()}
	s.newBatch = func() batchPredictor { return fake }

	// Request A: a 2-token prompt and 8 decode tokens. Request B, queued
	// behind it: a 12-token prompt (3 chunks of <=4) and 3 decode tokens.
	pa := &pending{ctx: context.Background(),
		req: Request{Prompt: "the king", MaxTokens: 8}, done: make(chan outcome, 1)}
	pb := &pending{ctx: context.Background(),
		req:  Request{Prompt: strings.TrimSpace(strings.Repeat("the king ", 6)), MaxTokens: 3},
		done: make(chan outcome, 1)}
	s.queue <- pa
	s.queue <- pb
	s.wg.Add(1)
	go s.loop()
	if o := <-pa.done; o.err != nil {
		t.Fatal(o.err)
	}
	if o := <-pb.done; o.err != nil {
		t.Fatal(o.err)
	}
	s.Close()

	// B's 12-token prompt is chunked and interleaved with A's decode steps.
	want := []string{"P2", "S1", "P4", "S1", "P4", "S1", "P4", "S2", "S2", "S1", "S1"}
	if got := fmt.Sprint(fake.ops); got != fmt.Sprint(want) {
		t.Fatalf("op sequence %v, want %v", fake.ops, want)
	}
	// The general bound, independent of the exact schedule: while decoding
	// is in flight, consecutive decode steps are separated by at most one
	// prefill pass, and no pass exceeds the configured chunk.
	prefills := 0
	for _, op := range fake.ops {
		if op[0] == 'P' {
			prefills++
			var n int
			fmt.Sscanf(op, "P%d", &n)
			if n > 4 {
				t.Fatalf("prefill chunk of %d tokens exceeds PrefillChunk 4", n)
			}
			if prefills > 1 {
				t.Fatalf("two prefill passes between decode steps: %v", fake.ops)
			}
			continue
		}
		prefills = 0
	}

	st := s.Stats()
	if st.PromptTokens != 14 {
		t.Errorf("PromptTokens = %d, want 14", st.PromptTokens)
	}
	// 8+3 sampled tokens, two of them from prefill logits (those two count
	// toward DecodeTokens but occupy no decode-step row).
	if st.DecodeTokens != 11 {
		t.Errorf("DecodeTokens = %d, want 11", st.DecodeTokens)
	}
	if st.StepRows != 9 {
		t.Errorf("StepRows = %d, want 9", st.StepRows)
	}
	if st.PrefillChunkHist[1] != 1 || st.PrefillChunkHist[2] != 3 {
		t.Errorf("PrefillChunkHist = %v, want one size-2 and three size-4 chunks", st.PrefillChunkHist)
	}
	// The op sequence fixes the decode batch sizes exactly: five 1-row
	// steps and two 2-row steps.
	if st.BatchHist[0] != 5 || st.BatchHist[1] != 2 {
		t.Errorf("BatchHist = %v, want five size-1 and two size-2 steps", st.BatchHist)
	}
	if st.Steps != 7 {
		t.Errorf("Steps = %d, want 7", st.Steps)
	}
}

// TestServeOverlongPromptMatchesDirect pins the keep-last window truncation
// at the serving layer: a prompt beyond the model window generates exactly
// what the direct driver produces for the same prompt.
func TestServeOverlongPromptMatchesDirect(t *testing.T) {
	m := testLLM(t)
	s := New(m, Config{PrefillChunk: 3})
	defer s.Close()
	long := strings.TrimSpace(strings.Repeat("the king sees ", 8)) // 24 tokens > window 16
	opts := []sample.Option{sample.WithMaxTokens(4), sample.WithSeed(2)}
	got, err := s.Gen(context.Background(), long, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lm.Gen(m, long, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != want.Text {
		t.Fatalf("served overlong prompt %q != direct %q", got.Text, want.Text)
	}
	if st := s.Stats(); st.PromptTokens == 0 {
		t.Errorf("PromptTokens = 0 after a served request")
	}
}

// TestPrefillChunkConfigured checks chunk-size selection: default 32,
// explicit values honored, negative = whole prompt in one pass.
func TestPrefillChunkConfigured(t *testing.T) {
	if got := (Config{}).withDefaults().PrefillChunk; got != 32 {
		t.Fatalf("default PrefillChunk = %d, want 32", got)
	}
	if got := (Config{PrefillChunk: 7}).withDefaults().PrefillChunk; got != 7 {
		t.Fatalf("explicit PrefillChunk = %d, want 7", got)
	}

	m := testLLM(t)
	s := newServer(m, m, Config{CoalesceWait: -1, PrefillChunk: -1})
	fake := &fakeBatch{vocab: m.Tok.VocabSize()}
	s.newBatch = func() batchPredictor { return fake }
	p := &pending{ctx: context.Background(),
		req:  Request{Prompt: strings.TrimSpace(strings.Repeat("the king ", 6)), MaxTokens: 2},
		done: make(chan outcome, 1)}
	s.queue <- p
	s.wg.Add(1)
	go s.loop()
	if o := <-p.done; o.err != nil {
		t.Fatal(o.err)
	}
	s.Close()
	if want := []string{"P12", "S1"}; fmt.Sprint(fake.ops) != fmt.Sprint(want) {
		t.Fatalf("unchunked op sequence %v, want %v", fake.ops, want)
	}
}
