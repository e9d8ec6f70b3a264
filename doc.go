// Package repro is a pure-Go, stdlib-only reproduction of the systems and
// experiments described in "Large Language Models: Principles and Practice"
// (the LLM tutorial literature): statistical language models, the
// transformer recipe, scaling laws, in-context learning, and
// interpretability probes.
//
// Layout:
//
//   - llm is the public API: training (including the data-parallel trainer),
//     the unified generation API (Gen/Stream with functional options over
//     any LanguageModel backend), the batched generation Server with
//     per-token streaming, and the evaluation harness. Start with its
//     Example functions.
//   - internal/ holds the substrates: the corpus → tokenizer → transformer →
//     train → sample → eval pipeline plus the numerical stack (mathx,
//     tensor, autograd, nn), the backend-agnostic model contract (lm), and
//     the serving engine (serve).
//   - cmd/ has the binaries: llm-train, llm-generate (any backend,
//     streaming), llm-bench (the task-suite leaderboard, and the -chaos
//     fault-injection scenarios), llm-serve (the HTTP generation service
//     with SSE streaming), llm-router, scaling-laws, and bench-ab (A/B
//     pairs on the benchmark of record in bench/).
//   - The root-level benchmarks regenerate every table and figure of the
//     paper's evaluation and measure the training/serving hot paths.
//
// DESIGN.md maps each package and indexes the experiments E1-E27 (root
// benchmarks, the llm-bench -chaos scenarios, and bench/); EXPERIMENTS.md explains how to run every binary and
// benchmark and records measured results.
package repro
