// Package suite assembles the subtrav-vet analyzers and the policy
// of where each applies. Analyzers are pure pattern detectors; this
// is the single place that encodes which packages carry which
// invariant, shared by the cmd/subtrav-vet driver and the smoke test.
package suite

import (
	"subtrav/internal/analysis"
	"subtrav/internal/analysis/allocfree"
	"subtrav/internal/analysis/atomicmix"
	"subtrav/internal/analysis/ctxplumb"
	"subtrav/internal/analysis/goroleak"
	"subtrav/internal/analysis/lockhold"
	"subtrav/internal/analysis/lockorder"
	"subtrav/internal/analysis/metriclabel"
	"subtrav/internal/analysis/simdet"
	"subtrav/internal/analysis/taintlen"
)

// Analyzers returns the nine checks in their canonical order: the
// five syntactic analyzers from the original suite, then the four
// dataflow-powered ones built on the CFG engine and the facts layer.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		simdet.Analyzer,
		atomicmix.Analyzer,
		lockhold.Analyzer,
		ctxplumb.Analyzer,
		metriclabel.Analyzer,
		lockorder.Analyzer,
		taintlen.Analyzer,
		allocfree.Analyzer,
		goroleak.Analyzer,
	}
}

// Scopes maps each analyzer to the packages its invariant governs.
func Scopes() map[string]analysis.Scope {
	return map[string]analysis.Scope{
		// Bit-for-bit determinism is a property of the simulator and
		// everything that feeds it: graph generation, workload
		// synthesis, the traversal kernels whose access traces the
		// simulator replays (a map-range there once leaked randomized
		// order into trace emission), and the auction solver whose
		// tie-breaks the paper's figures compare. The live runtime
		// measures real time by design and is exempt.
		// The load generator is in scope too: a load plan, and the
		// report Replay gets from running it through the simulator,
		// must be a pure function of their inputs so BENCH_load.json
		// stays byte-reproducible; only the wall-clock driver in
		// cmd/subtrav-load may touch real time.
		simdet.Analyzer.Name: {Paths: []string{
			"subtrav/internal/sim",
			"subtrav/internal/graph",
			"subtrav/internal/graphgen",
			"subtrav/internal/traverse",
			"subtrav/internal/auction",
			"subtrav/internal/workload",
			"subtrav/internal/loadgen",
		}},
		// Mixed atomic/plain access is a bug anywhere.
		atomicmix.Analyzer.Name: {},
		// The lock-hold discipline governs the hot path: runtime,
		// scheduler, simulator, cache, storage and the metrics layer
		// they all call into. Command wiring and the RPC service
		// (which serializes socket writes under a lock by design)
		// are exempt.
		lockhold.Analyzer.Name: {Paths: []string{
			"subtrav/internal/live",
			"subtrav/internal/sched",
			"subtrav/internal/sim",
			"subtrav/internal/cache",
			"subtrav/internal/storage",
			"subtrav/internal/obs",
			"subtrav/internal/metrics",
		}},
		// Library code must plumb contexts; main packages own root
		// contexts legitimately.
		ctxplumb.Analyzer.Name: {SkipMain: true},
		// Metric hygiene is a property of every registry call site.
		metriclabel.Analyzer.Name: {},
		// A lock-order cycle deadlocks no matter which packages the
		// two acquisition orders live in: module-wide, no exemptions.
		lockorder.Analyzer.Name: {},
		// Untrusted bytes enter through the snapshot reader and the
		// wire protocol; decoded sizes must be validated where they
		// are decoded, before they spread.
		taintlen.Analyzer.Name: {Paths: []string{
			"subtrav/internal/graphio",
			"subtrav/internal/service",
		}},
		// The //vet:hotpath marker gates allocfree per function, so
		// the package scope is unrestricted — an unmarked function is
		// never flagged.
		allocfree.Analyzer.Name: {},
		// A leaked goroutine is a leak wherever it is launched,
		// commands included.
		goroleak.Analyzer.Name: {},
	}
}
