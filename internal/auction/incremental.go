package auction

import "fmt"

// Auctioneer runs the auction *incrementally* across scheduling
// rounds, as described in Section V: the set of columns (processing
// units) is fixed while task rows stream in and out, and object prices
// learned in earlier rounds are retained as the warm start for later
// ones. High prices linger on units that were recently contested,
// which both speeds up convergence and encodes a memory of contention.
// The solver state is retained with them, so a round in steady state
// allocates nothing. Not safe for concurrent use.
type Auctioneer struct {
	numCols int
	prices  []float64
	opts    Options
	s       state

	// Cumulative statistics across rounds.
	roundsRun  int
	totalBids  int64
	assignRuns int
}

// AuctioneerConfig configures an incremental auctioneer.
type AuctioneerConfig struct {
	// NumCols is the fixed number of columns (processing units).
	NumCols int
	// Options tunes the underlying solver.
	Options Options
}

// NewAuctioneer creates an incremental auctioneer with zero prices.
func NewAuctioneer(cfg AuctioneerConfig) (*Auctioneer, error) {
	if cfg.NumCols <= 0 {
		return nil, fmt.Errorf("auction: NumCols = %d, want > 0", cfg.NumCols)
	}
	return &Auctioneer{
		numCols: cfg.NumCols,
		prices:  make([]float64, cfg.NumCols),
		opts:    cfg.Options,
	}, nil
}

// Assign solves one scheduling round. The problem must have exactly
// NumCols columns. The retained prices are the warm start, and the
// post-round prices are retained for the next call. The returned
// matching is valid until then too (see Assignment).
func (a *Auctioneer) Assign(p Problem) (Assignment, error) {
	if p.NumCols != a.numCols {
		return Assignment{}, fmt.Errorf("auction: problem has %d columns, auctioneer has %d", p.NumCols, a.numCols)
	}
	if err := p.Validate(); err != nil {
		return Assignment{}, err
	}
	a.s.reset(p, a.prices, a.opts)
	result := a.s.result(sequentialRounds(&a.s))
	a.assignRuns++
	a.roundsRun += result.Rounds
	a.totalBids += result.Bids
	return result, nil
}

// Prices returns a copy of the current object price vector (the dual
// variables p of Eq. 6).
func (a *Auctioneer) Prices() []float64 {
	out := make([]float64, len(a.prices))
	copy(out, a.prices)
	return out
}

// ResetPrices zeroes the retained prices (cold start).
func (a *Auctioneer) ResetPrices() {
	for j := range a.prices {
		a.prices[j] = 0
	}
}

// TotalRounds returns the cumulative bidding rounds across all Assign
// calls.
func (a *Auctioneer) TotalRounds() int { return a.roundsRun }

// TotalBids returns the cumulative bids across all Assign calls.
func (a *Auctioneer) TotalBids() int64 { return a.totalBids }

// Runs returns how many Assign calls have completed.
func (a *Auctioneer) Runs() int { return a.assignRuns }
