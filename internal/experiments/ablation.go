package experiments

import (
	"fmt"

	"subtrav"
	"subtrav/internal/auction"
	"subtrav/internal/xrand"
)

// Ablation compares every scheduling policy on the BFS workload at the
// largest unit count — isolating the paper's two ingredients: pure
// balance (least-loaded), pure locality (affinity-only), both (SCH),
// neither (round-robin, random baseline). Two tables are produced: a
// uniform hotspot stream, and a Zipf-skewed stream where one hotspot
// dominates — the regime where pure affinity routing piles work onto
// one unit and the balance half of the tradeoff earns its keep.
func Ablation(cfg Config) ([]*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	units := cfg.maxUnits()
	var tables []*Table
	for _, stream := range []struct {
		name string
		skew float64
	}{
		{"uniform hotspots", 0},
		{"zipf-skewed hotspots", 1.2},
	} {
		streamCfg := cfg
		streamCfg.Locality.HotspotSkew = stream.skew
		a := bfsApp()
		g, tasks, err := a.build(streamCfg)
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title:   fmt.Sprintf("Ablation (%s): policies on BFS at %d units", stream.name, units),
			Columns: []string{"policy", "throughput (q/s)", "hit rate", "imbalance", "p95 latency"},
			Notes: []string{
				"SCH combines affinity and balance; affinity-only risks imbalance, least-loaded forfeits locality",
			},
		}
		for _, policy := range subtrav.Policies() {
			res, err := streamCfg.runOn(g, tasks, units, a.memory(streamCfg), policy)
			if err != nil {
				return nil, err
			}
			t.AddRow(string(policy), res.ThroughputPerSec,
				fmt.Sprintf("%.3f", res.HitRate),
				fmt.Sprintf("%.2f", res.Imbalance),
				res.Latency.P95.String())
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// EpsilonSweep examines the auction's minimum price increment ε
// (Section VI discusses running "with smaller ε, which leads to
// improved scheduling"): solution quality (distance from the exact
// optimum) and bidding work on synthetic affinity-like assignment
// problems.
func EpsilonSweep(seed uint64, n int) (*Table, error) {
	if n <= 0 || n > 512 {
		return nil, fmt.Errorf("experiments: epsilon sweep size %d, want (0,512]", n)
	}
	rng := xrand.New(seed)
	benefits := make([][]float64, n)
	for i := range benefits {
		benefits[i] = make([]float64, n)
		for j := range benefits[i] {
			benefits[i][j] = rng.Float64()
		}
	}
	exact, err := auction.SolveExact(benefits)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Auction ε sensitivity (%d×%d dense assignment)", n, n),
		Columns: []string{"epsilon", "benefit", "optimal gap", "rounds", "bids"},
		Notes: []string{
			fmt.Sprintf("exact optimum %.3f (Hungarian)", exact.Benefit),
			"theory: gap ≤ n·ε; smaller ε → better schedule, more bidding work",
		},
	}
	for _, eps := range []float64{0.1, 0.01, 0.001, 0.0001} {
		res := auction.Solve(auction.Dense(benefits), auction.Options{Epsilon: eps})
		gap := exact.Benefit - res.Benefit
		t.AddRow(fmt.Sprintf("%g", eps),
			fmt.Sprintf("%.3f", res.Benefit),
			fmt.Sprintf("%.4f", gap),
			res.Rounds, res.Bids)
	}
	return t, nil
}

// WarmStartStudy quantifies the incremental auction's benefit: rounds
// needed with warm-started prices vs cold starts over a drifting
// problem sequence — the "performed incrementally, so as to capture
// the changes of the bipartite graph structure" claim of Section V.
func WarmStartStudy(seed uint64, n, roundsCount int) (*Table, error) {
	if n <= 0 || roundsCount <= 0 {
		return nil, fmt.Errorf("experiments: invalid warm-start study shape %d/%d", n, roundsCount)
	}
	rng := xrand.New(seed)
	base := make([][]float64, n)
	for i := range base {
		base[i] = make([]float64, n)
		for j := range base[i] {
			base[i][j] = rng.Float64()
		}
	}
	warm, err := auction.NewAuctioneer(auction.AuctioneerConfig{
		NumCols: n, Options: auction.Options{Epsilon: 1e-3},
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Incremental auction: warm vs cold starts (%d×%d, %d rounds)", n, n, roundsCount),
		Columns: []string{"round", "warm rounds", "cold rounds", "saving"},
		Notes:   []string{"each round perturbs benefits by ±1%, as successive scheduling batches do"},
	}
	var totalWarm, totalCold int
	for r := 0; r < roundsCount; r++ {
		problem := make([][]float64, n)
		for i := range problem {
			problem[i] = make([]float64, n)
			for j := range problem[i] {
				problem[i][j] = base[i][j] + 0.01*rng.Float64()
			}
		}
		before := warm.TotalRounds()
		if _, err := warm.Assign(auction.Dense(problem)); err != nil {
			return nil, err
		}
		warmRounds := warm.TotalRounds() - before
		cold := auction.Solve(auction.Dense(problem), auction.Options{Epsilon: 1e-3})
		totalWarm += warmRounds
		totalCold += cold.Rounds
		t.AddRow(r, warmRounds, cold.Rounds,
			fmt.Sprintf("%.0f%%", 100*(1-ratio(float64(warmRounds), float64(cold.Rounds)))))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("total: warm %d vs cold %d rounds", totalWarm, totalCold))
	return t, nil
}
