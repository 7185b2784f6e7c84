package auction

import (
	"testing"

	"subtrav/internal/xrand"
)

func TestAuctioneerConfigValidation(t *testing.T) {
	if _, err := NewAuctioneer(AuctioneerConfig{NumCols: 0}); err == nil {
		t.Error("NumCols=0 should fail")
	}
	if _, err := NewAuctioneer(AuctioneerConfig{NumCols: 4}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestAuctioneerRejectsWrongShape(t *testing.T) {
	a, err := NewAuctioneer(AuctioneerConfig{NumCols: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Assign(Problem{NumCols: 3}); err == nil {
		t.Error("mismatched NumCols should error")
	}
}

func TestAuctioneerBasicRound(t *testing.T) {
	a, err := NewAuctioneer(AuctioneerConfig{NumCols: 2, Options: Options{Epsilon: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	p := Dense([][]float64{{0.9, 0.1}, {0.2, 0.8}})
	res, err := a.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowToCol[0] != 0 || res.RowToCol[1] != 1 {
		t.Errorf("assignment = %v", res.RowToCol)
	}
	if a.Runs() != 1 || a.TotalRounds() == 0 || a.TotalBids() == 0 {
		t.Errorf("stats: runs=%d rounds=%d bids=%d", a.Runs(), a.TotalRounds(), a.TotalBids())
	}
}

func TestWarmStartReducesWork(t *testing.T) {
	rng := xrand.New(5)
	const n, m = 24, 32
	base := randomDense(rng, n, m)
	perturb := func() Problem {
		b := make([][]float64, n)
		for i := range b {
			b[i] = append([]float64(nil), base[i]...)
			for j := range b[i] {
				b[i][j] += 0.01 * rng.Float64() // small drift between rounds
			}
		}
		return Dense(b)
	}

	warm, err := NewAuctioneer(AuctioneerConfig{NumCols: m, Options: Options{Epsilon: 1e-3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Assign(Dense(base)); err != nil {
		t.Fatal(err)
	}
	firstRounds := warm.TotalRounds()

	var warmRounds, coldRounds int
	for i := 0; i < 5; i++ {
		p := perturb()
		before := warm.TotalRounds()
		if _, err := warm.Assign(p); err != nil {
			t.Fatal(err)
		}
		warmRounds += warm.TotalRounds() - before
		cold := Solve(p, Options{Epsilon: 1e-3})
		coldRounds += cold.Rounds
	}
	t.Logf("first=%d warm(5 rounds)=%d cold(5 rounds)=%d", firstRounds, warmRounds, coldRounds)
	// Warm-started incremental rounds should beat cold starts on
	// near-identical successive problems.
	if warmRounds >= coldRounds {
		t.Errorf("warm start did not reduce rounds: warm=%d cold=%d", warmRounds, coldRounds)
	}
}

func TestWarmStartStillValid(t *testing.T) {
	rng := xrand.New(9)
	const m = 16
	a, err := NewAuctioneer(AuctioneerConfig{NumCols: m, Options: Options{Epsilon: 1e-3}})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(m)
		p := Dense(randomDense(rng, n, m))
		res, err := a.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyMatching(p, res); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.NumAssigned() != n {
			t.Fatalf("round %d: assigned %d of %d", round, res.NumAssigned(), n)
		}
	}
}

func TestResetPrices(t *testing.T) {
	a, err := NewAuctioneer(AuctioneerConfig{NumCols: 2, Options: Options{Epsilon: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Assign(Dense([][]float64{{1, 0}, {0, 1}})); err != nil {
		t.Fatal(err)
	}
	a.ResetPrices()
	for _, p := range a.Prices() {
		if p != 0 {
			t.Errorf("price %g after reset", p)
		}
	}
}

// The Jacobi solver run incrementally: one price slice carried across
// rounds, the way the Auctioneer carries it for the sequential solver.
func TestAuctioneerParallelVariant(t *testing.T) {
	rng := xrand.New(11)
	prices := make([]float64, 16)
	for round := 0; round < 10; round++ {
		n := 4 + rng.Intn(12)
		p := Dense(randomDense(rng, n, 16))
		res := SolveParallelPriced(p, Options{Epsilon: 1e-3, Workers: 4}, prices)
		if res.NumAssigned() != n {
			t.Fatalf("round %d: assigned %d of %d", round, res.NumAssigned(), n)
		}
		if err := VerifyMatching(p, res); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAuctioneerValidatesProblem(t *testing.T) {
	a, err := NewAuctioneer(AuctioneerConfig{NumCols: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := Problem{NumCols: 2, Rows: [][]Arc{{{Col: 9, Benefit: 1}}}}
	if _, err := a.Assign(bad); err == nil {
		t.Error("invalid problem should be rejected")
	}
}
