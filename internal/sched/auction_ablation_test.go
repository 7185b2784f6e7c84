package sched

import (
	"testing"
)

// ablationLeakFixture sets up a segment where some task must lose the
// auction and fall back to its best-affinity unit, with queue lengths
// arranged so that the workload-weighted argmax and the raw-score
// argmax disagree for every task:
//
//   - tasks 0 and 1 (vertex 5, closure {4,5,6} fully visited by units
//     0 and 1) score 1.0 on both units;
//   - task 2 (vertex 1, closure {0,1,2}) scores 2/3 on unit 0 (visited
//     {0,1}) and 1/3 on unit 1 (visited {0});
//   - unit 0 is deeply queued (9) and unit 1 idle, so Eq. 4 weighting
//     flips every task's preference: raw scores prefer (or tie on,
//     breaking ties low) unit 0, weighted benefits prefer unit 1.
//
// Three tasks compete for two affinitive units, so exactly one loses
// its auction and exercises the fallback. Which one loses depends on
// auction bidding dynamics, but the expected fallback unit is the
// same for all three, so the assertions are deterministic.
func ablationLeakFixture(t *testing.T, workloadAware bool) (*Auction, []UnitState) {
	t.Helper()
	sch, sigs, _, _ := auctionFixture(t, 4, workloadAware)
	for _, p := range []int32{0, 1} {
		sigs.Record(4, p, 1)
		sigs.Record(5, p, 1)
		sigs.Record(6, p, 1)
	}
	sigs.Record(0, 0, 1)
	sigs.Record(1, 0, 1)
	sigs.Record(0, 1, 1)
	units := []UnitState{
		&stubUnit{queue: 9},
		&stubUnit{queue: 0},
		&stubUnit{queue: 0},
		&stubUnit{queue: 0},
	}
	return sch, units
}

// fellBackPlacements returns the units chosen by the lost-auction
// fallback in one Assign round over the fixture's three
// tasks, asserting exactly one task fell back.
func fellBackPlacements(t *testing.T, sch *Auction, units []UnitState) []int {
	t.Helper()
	out, expl := sch.Assign(mkTasks(5, 5, 1), units), sch.Explained()
	var fellBack []int
	for i, e := range expl {
		if e.EmptyRow {
			t.Fatalf("task %d had an empty affinity row; fixture broken (out=%v)", i, out)
		}
		if e.FellBack {
			fellBack = append(fellBack, out[i])
		}
	}
	if len(fellBack) != 1 {
		t.Fatalf("want exactly 1 lost-auction fallback among 3 tasks over 2 affinitive units, got %d (out=%v, expl=%+v)", len(fellBack), out, expl)
	}
	return fellBack
}

// Regression: in the affinity-only ablation (WorkloadAware=false) the
// lost-auction fallback must compare the same un-weighted scores the
// auction bid with. It used to pick the best *workload-weighted*
// benefit from the matrix row, leaking balance information into the
// ablation: the loser followed the idle unit 1 instead of its
// raw-score-best unit 0.
func TestAblationFallbackIgnoresLoad(t *testing.T) {
	t.Parallel()
	sch, units := ablationLeakFixture(t, false)
	for _, unit := range fellBackPlacements(t, sch, units) {
		if unit != 0 {
			t.Errorf("affinity-only fallback placed loser on unit %d, want raw-score best unit 0", unit)
		}
	}
}

// Control: with Eq. 4 weighting on, the same fallback prefers the
// idle unit — the weighted benefit is the right comparison there.
func TestWorkloadAwareFallbackPrefersIdle(t *testing.T) {
	t.Parallel()
	sch, units := ablationLeakFixture(t, true)
	for _, unit := range fellBackPlacements(t, sch, units) {
		if unit != 1 {
			t.Errorf("workload-aware fallback placed loser on unit %d, want weighted best unit 1", unit)
		}
	}
}
