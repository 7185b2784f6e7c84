// Package suite assembles the subtrav-vet analyzers and the policy
// of where each applies. Analyzers are pure pattern detectors; this
// is the single place that encodes which packages carry which
// invariant, shared by the cmd/subtrav-vet driver and the smoke test.
package suite

import (
	"subtrav/internal/analysis"
	"subtrav/internal/analysis/allocfree"
	"subtrav/internal/analysis/ctxplumb"
	"subtrav/internal/analysis/lockhold"
	"subtrav/internal/analysis/metriclabel"
	"subtrav/internal/analysis/simdet"
	"subtrav/internal/analysis/taintlen"
)

// Analyzers returns the six checks. Each is the only guard — not go
// vet, staticcheck or -race — of an invariant the reproduction relies
// on, which TestMutationAudit demonstrates by re-introducing the bug
// class each one exists for and seeing only that analyzer fire.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		simdet.Analyzer,
		lockhold.Analyzer,
		ctxplumb.Analyzer,
		metriclabel.Analyzer,
		taintlen.Analyzer,
		allocfree.Analyzer,
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
	}
}
