package auction

import (
	"runtime"
	"sync"
)

// SolveParallel runs the Jacobi-style parallel auction: in each round
// every unassigned row computes its bid concurrently against a frozen
// price vector (the "for ... pardo" of Algorithm 1), then bids are
// resolved per column — the highest bidder wins, displacing the
// incumbent. This is the parallel formulation the paper deploys on its
// multi-core scheduler node.
func SolveParallel(p Problem, opts Options) Assignment {
	return solveParallelWithPrices(p, opts, make([]float64, p.NumCols))
}

type bid struct {
	row, col int
	price    float64
}

func solveParallelWithPrices(p Problem, opts Options, prices []float64) Assignment {
	s := newState(p, prices, opts)
	return s.result(jacobiRounds(s, workers(p)))
}

// workers returns the bid-phase goroutine count for this problem: one
// per 64 rows, capped by GOMAXPROCS and by 8.
func workers(p Problem) int {
	w := (p.NumRows() + 63) / 64
	if w < 1 {
		w = 1
	}
	if max := runtime.GOMAXPROCS(0); w > max {
		w = max
	}
	if w > 8 {
		w = 8
	}
	return w
}

// jacobiRounds runs synchronous bidding rounds until no assignable row
// remains unassigned; returns the number of rounds executed.
func jacobiRounds(s *state, workers int) int {
	unassigned := make([]int, 0, s.p.NumRows())
	for i := range s.p.Rows {
		unassigned = append(unassigned, i)
	}
	bids := make([]bid, 0, len(unassigned))
	rowPos := make([]int, s.p.NumRows()) // position of a row's bid in bids
	var winners []int                    // winning row per column this round
	rounds := 0

	for len(unassigned) > 0 && rounds < s.maxRounds {
		rounds++

		// Bid phase: all unassigned rows bid simultaneously against
		// the current prices (Lines 3-5 of Algorithm 1).
		bids = bids[:len(unassigned)]
		bidOne := func(k int) {
			i := unassigned[k]
			j, best, second, ok := s.bestTwo(i)
			if !ok || best < s.profitFloor {
				bids[k] = bid{row: i, col: -1}
				return
			}
			bids[k] = bid{row: i, col: j, price: s.prices[j] + best - second + s.eps}
		}
		if workers <= 1 || len(unassigned) < 16 {
			for k := range unassigned {
				bidOne(k)
			}
		} else {
			var wg sync.WaitGroup
			chunk := (len(unassigned) + workers - 1) / workers
			for w := 0; w < workers; w++ {
				lo := w * chunk
				if lo >= len(unassigned) {
					break
				}
				hi := lo + chunk
				if hi > len(unassigned) {
					hi = len(unassigned)
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					for k := lo; k < hi; k++ {
						bidOne(k)
					}
				}(lo, hi)
			}
			wg.Wait()
		}

		// Resolve phase: per column, the highest bid wins (Lines 6-9).
		// Winners are applied in column order so the result is fully
		// deterministic; ties break toward the lower row index.
		if winners == nil {
			winners = make([]int, s.p.NumCols)
		}
		for j := range winners {
			winners[j] = -1
		}
		bidByRow := func(r int) bid { return bids[rowPos[r]] }
		for k, b := range bids {
			rowPos[b.row] = k
			if b.col < 0 {
				continue // unassignable: silently dropped from the pool
			}
			s.bids++
			if w := winners[b.col]; w < 0 {
				winners[b.col] = b.row
			} else if prior := bidByRow(w); b.price > prior.price ||
				(b.price == prior.price && b.row < prior.row) {
				winners[b.col] = b.row
			}
		}
		next := unassigned[:0]
		for _, b := range bids {
			if b.col >= 0 && winners[b.col] != b.row {
				next = append(next, b.row) // lost this round, bid again
			}
		}
		for col, row := range winners {
			if row < 0 {
				continue
			}
			s.prices[col] = bidByRow(row).price
			if displaced := s.assign(row, col); displaced >= 0 {
				next = append(next, displaced)
			}
		}
		unassigned = next
	}
	return rounds
}
