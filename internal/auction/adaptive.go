package auction

import "fmt"

// AdaptiveAuctioneer implements the paper's stated future work:
// "machine learning based approaches to optimizing the auction
// processing by finding an adaptive minimum price increment ε".
//
// ε trades solution quality against bidding work: the assignment is
// within n·ε of optimal, but rounds grow roughly with C/ε. The
// adaptive controller treats scheduling rounds as a stream of similar
// problems and runs a multiplicative-update policy on ε:
//
//   - when a round used more bidding rounds than RoundsBudget, ε is
//     multiplied by Grow (coarser, faster);
//   - when it used less than half the budget, ε is divided by Shrink
//     (finer, better assignments);
//   - ε is clamped to [MinEpsilon, MaxEpsilon].
//
// This is a bandit-flavoured feedback controller rather than a learned
// model, which matches the scale of the problem: the signal (rounds
// per solve) is cheap, dense and stationary-ish within a workload
// phase.
type AdaptiveAuctioneer struct {
	inner *Auctioneer
	cfg   AdaptiveConfig
	eps   float64

	epsHistory []float64
}

// AdaptiveConfig tunes the controller.
type AdaptiveConfig struct {
	// NumCols is the fixed column (unit) count.
	NumCols int
	// InitialEpsilon seeds ε (default DefaultEpsilon).
	InitialEpsilon float64
	// MinEpsilon / MaxEpsilon clamp the adaptation (defaults 1e-6 and
	// 0.25).
	MinEpsilon float64
	MaxEpsilon float64
	// RoundsBudget is the per-solve bidding-round target (default
	// 4×NumCols).
	RoundsBudget int
	// Grow multiplies ε on over-budget solves (default 2).
	Grow float64
	// Shrink divides ε on under-half-budget solves (default 1.25;
	// gentler than Grow so quality recovers without oscillation).
	Shrink float64
}

func (c *AdaptiveConfig) applyDefaults() error {
	if c.NumCols <= 0 {
		return fmt.Errorf("auction: NumCols = %d, want > 0", c.NumCols)
	}
	if c.InitialEpsilon <= 0 {
		c.InitialEpsilon = DefaultEpsilon
	}
	if c.MinEpsilon <= 0 {
		c.MinEpsilon = 1e-6
	}
	if c.MaxEpsilon <= 0 {
		c.MaxEpsilon = 0.25
	}
	if c.MinEpsilon > c.MaxEpsilon {
		return fmt.Errorf("auction: MinEpsilon %g > MaxEpsilon %g", c.MinEpsilon, c.MaxEpsilon)
	}
	if c.RoundsBudget <= 0 {
		c.RoundsBudget = 4 * c.NumCols
	}
	if c.Grow <= 1 {
		c.Grow = 2
	}
	if c.Shrink <= 1 {
		c.Shrink = 1.25
	}
	return nil
}

// NewAdaptiveAuctioneer creates the controller with zero prices.
func NewAdaptiveAuctioneer(cfg AdaptiveConfig) (*AdaptiveAuctioneer, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	eps := clamp(cfg.InitialEpsilon, cfg.MinEpsilon, cfg.MaxEpsilon)
	inner, err := NewAuctioneer(AuctioneerConfig{
		NumCols: cfg.NumCols,
		Options: Options{Epsilon: eps},
	})
	if err != nil {
		return nil, err
	}
	return &AdaptiveAuctioneer{inner: inner, cfg: cfg, eps: eps}, nil
}

// Epsilon returns the controller's current ε.
func (a *AdaptiveAuctioneer) Epsilon() float64 { return a.eps }

// EpsilonHistory returns ε after each Assign call.
func (a *AdaptiveAuctioneer) EpsilonHistory() []float64 {
	return append([]float64(nil), a.epsHistory...)
}

// Runs returns how many Assign calls have completed.
func (a *AdaptiveAuctioneer) Runs() int { return a.inner.Runs() }

// Assign solves one round with the current ε, then adapts ε from the
// observed bidding effort. The result is the inner Auctioneer's, valid
// until the next Assign (see Assignment).
func (a *AdaptiveAuctioneer) Assign(p Problem) (Assignment, error) {
	a.inner.opts.Epsilon = a.eps
	result, err := a.inner.Assign(p)
	if err != nil {
		return Assignment{}, err
	}
	switch {
	case result.Rounds > a.cfg.RoundsBudget:
		a.eps = clamp(a.eps*a.cfg.Grow, a.cfg.MinEpsilon, a.cfg.MaxEpsilon)
	case result.Rounds < a.cfg.RoundsBudget/2:
		a.eps = clamp(a.eps/a.cfg.Shrink, a.cfg.MinEpsilon, a.cfg.MaxEpsilon)
	}
	a.epsHistory = append(a.epsHistory, a.eps)
	return result, nil
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
