package auction

import (
	"math"
	"testing"

	"subtrav/internal/xrand"
)

// These are property tests over random cost matrices: whatever the
// input, the sequential auction's returned assignment and final prices
// must satisfy ε-complementary slackness (the invariant Algorithm 1
// maintains, and the source of the n·ε optimality bound), and warm
// starts — the production path, where prices carry over between
// scheduling rounds — must never leave that corridor.

func TestEpsilonComplementarySlacknessRandomMatrices(t *testing.T) {
	t.Parallel()
	const eps = 0.01
	rng := xrand.New(7)
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(11)
		b := randomDense(rng, n, n)
		p := Dense(b)
		prices := make([]float64, n)
		asg := SolvePriced(p, Options{Epsilon: eps}, prices)
		if got := asg.NumAssigned(); got != n {
			t.Fatalf("trial %d: %d of %d rows assigned", trial, got, n)
		}
		if err := VerifyMatching(p, asg); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := VerifyEpsilonCS(p, asg, prices, eps); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}

		// ε-CS implies the n·ε bound against the exact optimum.
		opt, err := SolveExact(b)
		if err != nil {
			t.Fatal(err)
		}
		if asg.Benefit < opt.Benefit-float64(n)*eps-1e-9 {
			t.Errorf("trial %d: benefit %.9f below optimal %.9f - n·ε %.9f",
				trial, asg.Benefit, opt.Benefit, float64(n)*eps)
		}
		if asg.Benefit > opt.Benefit+1e-9 {
			t.Errorf("trial %d: benefit %.9f exceeds the optimum %.9f", trial, asg.Benefit, opt.Benefit)
		}
	}
}

func TestEpsilonCSRectangular(t *testing.T) {
	t.Parallel()
	const eps = 0.01
	rng := xrand.New(21)
	for trial := 0; trial < 40; trial++ {
		// Fewer rows than columns: every row must land, ε-CS still holds.
		m := 3 + rng.Intn(10)
		n := 1 + rng.Intn(m)
		p := Dense(randomDense(rng, n, m))
		prices := make([]float64, m)
		asg := SolvePriced(p, Options{Epsilon: eps}, prices)
		if got := asg.NumAssigned(); got != n {
			t.Fatalf("trial %d: %d of %d rows assigned", trial, got, n)
		}
		if err := VerifyEpsilonCS(p, asg, prices, eps); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

// TestWarmAndColdAgreeWithinBound: prices carried over from a previous
// (different) problem are a legal starting point, so a warm-started
// solve must stay within the same n·ε optimality corridor as a cold
// one — warm starts buy speed, never correctness.
func TestWarmAndColdAgreeWithinBound(t *testing.T) {
	t.Parallel()
	const eps = 0.01
	rng := xrand.New(33)
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(10)
		warmup := Dense(randomDense(rng, n, n))
		b := randomDense(rng, n, n)
		p := Dense(b)

		// Cold: zero prices.
		cold := SolvePriced(p, Options{Epsilon: eps}, make([]float64, n))

		// Warm: prices learned on a different problem first.
		prices := make([]float64, n)
		SolvePriced(warmup, Options{Epsilon: eps}, prices)
		warm := SolvePriced(p, Options{Epsilon: eps}, prices)

		if err := VerifyEpsilonCS(p, warm, prices, eps); err != nil {
			t.Errorf("trial %d: warm run: %v", trial, err)
		}
		if diff := math.Abs(warm.Benefit - cold.Benefit); diff > float64(n)*eps+1e-9 {
			t.Errorf("trial %d: warm %.9f vs cold %.9f differ by %.9f > n·ε %.9f",
				trial, warm.Benefit, cold.Benefit, diff, float64(n)*eps)
		}
	}
}

// TestAuctioneerWarmRoundsStayOptimal drives the incremental
// Auctioneer through a stream of square rounds and checks every
// round's result against the exact optimum — the warm-started
// production path, not just the one-shot solver. Square rounds assign
// every column, which is what makes carried-over prices harmless to
// the n·ε bound (weak duality needs unassigned columns to carry no
// stale price).
func TestAuctioneerWarmRoundsStayOptimal(t *testing.T) {
	t.Parallel()
	const eps = 0.01
	rng := xrand.New(55)
	const cols = 8
	a, err := NewAuctioneer(AuctioneerConfig{NumCols: cols, Options: Options{Epsilon: eps}})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 30; round++ {
		b := randomDense(rng, cols, cols)
		p := Dense(b)
		asg, err := a.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := asg.NumAssigned(); got != cols {
			t.Fatalf("round %d: %d of %d rows assigned", round, got, cols)
		}
		if err := VerifyEpsilonCS(p, asg, a.Prices(), eps); err != nil {
			t.Errorf("round %d: %v", round, err)
		}
		opt, err := SolveExact(b)
		if err != nil {
			t.Fatal(err)
		}
		if asg.Benefit < opt.Benefit-float64(cols)*eps-1e-9 {
			t.Errorf("round %d: warm benefit %.9f below optimal %.9f - n·ε", round, asg.Benefit, opt.Benefit)
		}
	}
	if a.Runs() != 30 {
		t.Errorf("Runs = %d, want 30", a.Runs())
	}
}

// TestAuctioneerRectangularRoundsKeepEpsCS: with fewer tasks than
// units, columns skipped by the current round may retain stale prices
// from earlier rounds, so the n·ε corridor against the exact optimum
// is NOT guaranteed (that memory of contention is the point of warm
// starts). What must survive any round shape is ε-CS and a valid
// matching.
func TestAuctioneerRectangularRoundsKeepEpsCS(t *testing.T) {
	t.Parallel()
	const eps = 0.01
	rng := xrand.New(56)
	const cols = 8
	a, err := NewAuctioneer(AuctioneerConfig{NumCols: cols, Options: Options{Epsilon: eps}})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 30; round++ {
		n := 1 + rng.Intn(cols)
		p := Dense(randomDense(rng, n, cols))
		asg, err := a.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := asg.NumAssigned(); got != n {
			t.Fatalf("round %d: %d of %d rows assigned", round, got, n)
		}
		if err := VerifyMatching(p, asg); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := VerifyEpsilonCS(p, asg, a.Prices(), eps); err != nil {
			t.Errorf("round %d: %v", round, err)
		}
	}
}
