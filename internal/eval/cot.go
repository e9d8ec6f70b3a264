package eval

import (
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/mathx"
	"repro/internal/nn"
	"repro/internal/tokenizer"
	"repro/internal/train"
	"repro/internal/transformer"
)

// CoTResult compares chain-of-thought and direct-answer training on the
// Figure 1 word-problem family (experiment E3).
type CoTResult struct {
	CoTAccuracy    float64 // held-out solve rate with worked steps in training
	DirectAccuracy float64 // held-out solve rate with answer-only training
}

// CoTConfig sizes the experiment.
type CoTConfig struct {
	TrainProblems int
	TestProblems  int
	Steps         int
	Dim           int
	Layers        int
	Seed          uint64
}

// DefaultCoT returns test-scale settings: the running-chain family, where
// each worked step reuses a small single-op fact table but the direct
// answer requires composing the whole chain in one forward pass.
func DefaultCoT() CoTConfig {
	return CoTConfig{TrainProblems: 400, TestProblems: 50, Steps: 1500, Dim: 48, Layers: 2, Seed: 3}
}

// ChainOfThoughtExperiment trains two identical models on the same
// problems — one seeing worked steps, one seeing only answers — and scores
// held-out solve rates. This reproduces the shape of the paper's Figure 1
// discussion: intermediate reasoning steps measurably improve quantitative
// QA (Minerva's ~50% regime).
func ChainOfThoughtExperiment(cfg CoTConfig) (CoTResult, error) {
	rng := mathx.NewRNG(cfg.Seed)
	const chainSteps = 3
	trainProbs := corpus.RunningChainSet(cfg.TrainProblems, chainSteps, rng)
	testProbs := corpus.RunningChainSet(cfg.TestProblems, chainSteps, rng.Split())

	trainOne := func(withCoT bool) (float64, error) {
		lines := make([]string, len(trainProbs))
		for i, p := range trainProbs {
			lines[i] = p.FullText(withCoT)
		}
		// Include every number token that can occur so held-out problems
		// never hit <unk>.
		vocabLine := make([]string, 0, 10)
		for v := 0; v <= 9; v++ {
			vocabLine = append(vocabLine, numWord(v))
		}
		tok := tokenizer.NewWord(append(append([]string(nil), lines...), strings.Join(vocabLine, " ")))
		// One aligned sequence per problem (question + solution + EOS), so
		// the model always sees complete, position-consistent problems —
		// stream windowing would cut across problem boundaries and destroy
		// the format.
		var batches []train.Batch
		window := 0
		for _, l := range lines {
			ids := append(tok.Encode(l), tokenizer.EOS)
			batches = append(batches, train.Batch{Input: ids[:len(ids)-1], Target: ids[1:]})
			if len(ids) > window {
				window = len(ids)
			}
		}
		model, err := transformer.New(transformer.Config{
			Vocab: tok.VocabSize(), Dim: cfg.Dim, Layers: cfg.Layers, Heads: 2,
			Window: window + 4, Pos: transformer.PosLearned, Act: nn.GELU,
		}, mathx.NewRNG(cfg.Seed+17))
		if err != nil {
			return 0, err
		}
		if _, err := train.Run(model, batches, train.Config{
			Steps: cfg.Steps, BatchSize: 4,
			Schedule:  train.WarmupCosine(0.003, 0.0003, cfg.Steps/10, cfg.Steps),
			Optimizer: train.NewAdam(0), ClipNorm: 1, Seed: cfg.Seed,
		}); err != nil {
			return 0, err
		}
		gen := &core.LLM{Tok: tok, Model: model}
		correct := 0
		budget := 8
		if withCoT {
			budget = 30
		}
		for _, p := range testProbs {
			// Cap the budget at the window's room so the question is never
			// truncated.
			room := model.Cfg.Window - len(tok.Encode(p.Question))
			if ExtractAnswer(gen.Complete(p.Question, min(budget, room))) == p.Answer {
				correct++
			}
		}
		return float64(correct) / float64(len(testProbs)), nil
	}

	cot, err := trainOne(true)
	if err != nil {
		return CoTResult{}, err
	}
	direct, err := trainOne(false)
	if err != nil {
		return CoTResult{}, err
	}
	return CoTResult{CoTAccuracy: cot, DirectAccuracy: direct}, nil
}

func numWord(v int) string {
	if v == 0 {
		return "0"
	}
	s := ""
	for v > 0 {
		s = string(rune('0'+v%10)) + s
		v /= 10
	}
	return s
}

// ExtractAnswer pulls the token following the final "answer" marker in a
// completion, or "" when absent.
func ExtractAnswer(completion string) string {
	f := strings.Fields(completion)
	for i := len(f) - 2; i >= 0; i-- {
		if f[i] == "answer" {
			return f[i+1]
		}
	}
	return ""
}

// RunningChainFixture returns a fixed chain problem (3 +2 -1 +4 = 8) used
// by tests and documentation.
func RunningChainFixture() corpus.Problem {
	return corpus.RunningChainProblem(3, []int{2, -1, 4})
}
