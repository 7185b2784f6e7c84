package sched_test

import (
	"fmt"
	"testing"

	"subtrav/internal/schedbench"
)

// TestAssignAllocatesOnlyWhatItReturns: on a warmed scheduler a round
// costs the allocator the placement slice the caller keeps (and the
// []Explain, when asked for) — the unit views, anchors, affinity
// matrix, auction problem and matching are all scratch. The fixture is
// the benchmark suite's: P tasks over P units on a pre-signed table.
// (An external test package: schedbench imports sched.)
func TestAssignAllocatesOnlyWhatItReturns(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items under -race")
	}
	for _, p := range []int{4, 64} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			fx, err := schedbench.NewFixture(p, schedbench.Degrees[0])
			if err != nil {
				t.Fatal(err)
			}
			fx.Auction.AssignExplained(fx.Tasks, fx.UnitStates) // warm-up
			if allocs := testing.AllocsPerRun(50, func() {
				fx.Auction.Assign(fx.Tasks, fx.UnitStates)
			}); allocs > 1 {
				t.Errorf("Assign: %v allocs, want at most the 1 slice it returns", allocs)
			}
			if allocs := testing.AllocsPerRun(50, func() {
				fx.Auction.AssignExplained(fx.Tasks, fx.UnitStates)
			}); allocs > 2 {
				t.Errorf("AssignExplained: %v allocs, want at most the 2 slices it returns", allocs)
			}
		})
	}
}
