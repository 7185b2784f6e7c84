package auction

import "math"

// The sequential solver as it was before the Auctioneer owned its
// state, kept unchanged as the oracle of differential_test.go: the
// benefit range walked three times a solve (refMaxRounds, and twice in
// newRefState), the matching remade per call, and the bidder FIFO a
// slice that is re-sliced to pop and appended to on displacement — it
// gives up a slot of capacity per pop and so reallocates about once
// per NumRows bids.

func refBenefitRange(p Problem) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, arcs := range p.Rows {
		for _, a := range arcs {
			if a.Benefit < lo {
				lo = a.Benefit
			}
			if a.Benefit > hi {
				hi = a.Benefit
			}
		}
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

func refMaxRounds(p Problem, eps float64) int {
	n := p.NumRows() + p.NumCols + 1
	c := refBenefitRange(p)
	return 1000 + 10*n + int(float64(2*p.NumRows()+1)*(c+1)/eps)
}

type refState struct {
	p           Problem
	prices      []float64
	rowToCol    []int
	colToRow    []int
	profitFloor float64
	bids        int64
	// peakQueue is the one addition: the longest the FIFO ever was.
	peakQueue int
}

func newRefState(p Problem, prices []float64) *refState {
	s := &refState{
		p:        p,
		prices:   prices,
		rowToCol: make([]int, p.NumRows()),
		colToRow: make([]int, p.NumCols),
	}
	for i := range s.rowToCol {
		s.rowToCol[i] = -1
	}
	for j := range s.colToRow {
		s.colToRow[j] = -1
	}
	maxPrice := 0.0
	for _, pr := range prices {
		if pr > maxPrice {
			maxPrice = pr
		}
	}
	minBenefit := math.Inf(1)
	for _, arcs := range p.Rows {
		for _, a := range arcs {
			if a.Benefit < minBenefit {
				minBenefit = a.Benefit
			}
		}
	}
	if math.IsInf(minBenefit, 1) {
		minBenefit = 0
	}
	depth := float64(2*p.NumRows()+1) * (refBenefitRange(p) + 1)
	s.profitFloor = minBenefit - maxPrice - depth
	return s
}

func (s *refState) bestTwo(i int) (bestCol int, bestProfit, secondProfit float64, ok bool) {
	arcs := s.p.Rows[i]
	if len(arcs) == 0 {
		return -1, 0, 0, false
	}
	bestCol = -1
	bestProfit = math.Inf(-1)
	secondProfit = math.Inf(-1)
	for _, a := range arcs {
		profit := a.Benefit - s.prices[a.Col]
		if profit > bestProfit {
			secondProfit = bestProfit
			bestProfit = profit
			bestCol = a.Col
		} else if profit > secondProfit {
			secondProfit = profit
		}
	}
	if math.IsInf(secondProfit, -1) {
		secondProfit = s.profitFloor
	}
	return bestCol, bestProfit, secondProfit, true
}

func (s *refState) assign(i, j int) (displaced int) {
	displaced = s.colToRow[j]
	if displaced >= 0 {
		s.rowToCol[displaced] = -1
	}
	s.colToRow[j] = i
	s.rowToCol[i] = j
	return displaced
}

func refSequentialRounds(s *refState, eps float64, maxRounds int) int {
	queue := make([]int, 0, s.p.NumRows())
	for i := range s.p.Rows {
		queue = append(queue, i)
	}
	rounds := 0
	for len(queue) > 0 && rounds < maxRounds {
		s.peakQueue = max(s.peakQueue, len(queue))
		rounds++
		i := queue[0]
		queue = queue[1:]
		if s.rowToCol[i] >= 0 {
			continue
		}
		j, best, second, ok := s.bestTwo(i)
		if !ok || best < s.profitFloor {
			continue // unassignable
		}
		s.bids++
		s.prices[j] += best - second + eps
		if displaced := s.assign(i, j); displaced >= 0 {
			queue = append(queue, displaced)
		}
	}
	return rounds
}

// refSolvePriced is the old solveWithPrices, minus the Benefit total
// (result's arc lookup did not change); prices are updated in place.
func refSolvePriced(p Problem, eps float64, prices []float64) (Assignment, *refState) {
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	s := newRefState(p, prices)
	rounds := refSequentialRounds(s, eps, refMaxRounds(p, eps))
	return Assignment{RowToCol: s.rowToCol, ColToRow: s.colToRow, Rounds: rounds, Bids: s.bids}, s
}
