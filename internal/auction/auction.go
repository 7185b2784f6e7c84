// Package auction implements the assignment solvers of Section V: the
// Bertsekas auction algorithm in its sequential (Gauss-Seidel) form,
// an incremental Auctioneer that warm-starts prices across scheduling
// rounds, and two exact reference solvers (Hungarian and brute force)
// used by tests to verify the ε-optimality guarantee. Algorithm 1's
// parallel ("pardo") bid phase is not kept; DESIGN.md §5.1 says why.
//
// The primal problem is Eq. 5 of the paper: select a matching between
// rows (subgraph traversal tasks) and columns (processing units) that
// maximizes total benefit; the auction computes the dual variables of
// Eq. 6 through iterative bidding (Algorithm 1).
package auction

import (
	"fmt"
	"math"
	"slices"
)

// Arc is one admissible (row, column) pair with its benefit a_ij —
// an edge of the dynamic bipartite graph B with weight from Eq. 4.
type Arc struct {
	Col     int
	Benefit float64
}

// Problem is a sparse rectangular assignment problem. Row i may be
// assigned to one of Rows[i]'s columns. len(Rows) may exceed NumCols,
// in which case some rows necessarily stay unassigned.
type Problem struct {
	NumCols int
	Rows    [][]Arc
}

// NumRows returns the number of bidder rows.
func (p Problem) NumRows() int { return len(p.Rows) }

// Validate checks arc ranges.
func (p Problem) Validate() error {
	if p.NumCols < 0 {
		return fmt.Errorf("auction: NumCols = %d", p.NumCols)
	}
	for i, arcs := range p.Rows {
		for _, a := range arcs {
			if a.Col < 0 || a.Col >= p.NumCols {
				return fmt.Errorf("auction: row %d has arc to column %d, want [0,%d)", i, a.Col, p.NumCols)
			}
			if math.IsNaN(a.Benefit) || math.IsInf(a.Benefit, 0) {
				return fmt.Errorf("auction: row %d has non-finite benefit %v", i, a.Benefit)
			}
		}
	}
	return nil
}

// Dense builds a fully dense problem from a benefit matrix.
func Dense(benefits [][]float64) Problem {
	numCols := 0
	if len(benefits) > 0 {
		numCols = len(benefits[0])
	}
	p := Problem{NumCols: numCols, Rows: make([][]Arc, len(benefits))}
	for i, row := range benefits {
		arcs := make([]Arc, len(row))
		for j, b := range row {
			arcs[j] = Arc{Col: j, Benefit: b}
		}
		p.Rows[i] = arcs
	}
	return p
}

// Assignment is the result of a solver run: the matching M of
// Algorithm 1 plus bookkeeping.
//
// Lifetime: RowToCol and ColToRow of an Assignment returned by
// Auctioneer.Assign are the auctioneer's own matching arrays, valid
// until the next Assign on that auctioneer — copy them to keep them
// longer. The stateless Solve* functions return slices the caller owns.
type Assignment struct {
	// RowToCol[i] is the column assigned to row i, or -1.
	RowToCol []int
	// ColToRow[j] is the row assigned to column j, or -1.
	ColToRow []int
	// Benefit is the total benefit of the matched arcs.
	Benefit float64
	// Rounds is the number of bidding rounds executed.
	Rounds int
	// Bids is the total number of individual bids placed.
	Bids int64
	// Capped reports that bidding stopped at the solver's round cap
	// with rows still bidding: the cap, not the auction, decided which
	// of them stayed unassigned.
	Capped bool
}

// Unassigned returns the rows left without a column.
func (a Assignment) Unassigned() []int {
	var out []int
	for i, c := range a.RowToCol {
		if c < 0 {
			out = append(out, i)
		}
	}
	return out
}

// NumAssigned returns the matching cardinality.
func (a Assignment) NumAssigned() int {
	n := 0
	for _, c := range a.RowToCol {
		if c >= 0 {
			n++
		}
	}
	return n
}

// Options tunes the auction solvers.
type Options struct {
	// Epsilon is the minimum price increment that prevents the price
	// war of Section V-B. The final assignment is within
	// NumRows*Epsilon of optimal. Must be > 0; DefaultEpsilon is used
	// when zero.
	Epsilon float64
}

// DefaultEpsilon is the price increment used when Options.Epsilon is
// zero. Benefits produced by the affinity scorer live in [0, 1]ε̃⁻¹, so
// 1e-3 gives near-optimal assignments at speed.
const DefaultEpsilon = 1e-3

// state is the auction machinery shared by both solver variants: the
// problem, its matching, and what one walk over the arcs derives from
// the problem before bidding starts. An Auctioneer keeps one across
// Assign calls and a solve in steady state allocates nothing; the
// stateless Solve* entry points each build a throw-away one.
type state struct {
	p        Problem
	prices   []float64
	rowToCol []int
	colToRow []int
	// ring is the sequential solver's bidder FIFO (see sequentialRounds).
	ring []int

	// Admission scratch (see admit): each row's best and worst benefit,
	// the rows in admission order, and the stamp of the augmenting-path
	// search that last visited each column.
	rowBest, rowWorst []float64
	order             []int
	seen              []int
	stamp             int

	eps float64
	// maxRounds caps bidding rounds, the safety net against
	// pathological inputs. Theoretical round bounds are O(n²·C/ε).
	// Admission leaves only rows that a matching can hold, so the
	// bidding is feasible and does not reach the cap; before admission,
	// rounds where k rows reached fewer than k units did, ending a war
	// that only the cap could settle.
	maxRounds int
	// capped records that the last bidding run stopped at maxRounds
	// with bidders still queued.
	capped bool
	// profitFloor is the "second-best profit" used when a row has a
	// single admissible column, standing in for -∞ without producing
	// unbounded prices.
	profitFloor float64
	bids        int64
}

func newState(p Problem, prices []float64, opts Options) *state {
	s := new(state)
	s.reset(p, prices, opts, false)
	return s
}

// reset points s at a new problem with nothing matched, reusing the
// matching arrays, the ring and the admission scratch when they are
// large enough, and admits the rows that bid (see admit). With
// capCarried set, each price is first lowered to at most the cheapest
// price plus the admitted rows' benefit range plus one (see
// Auctioneer.Assign).
func (s *state) reset(p Problem, prices []float64, opts Options, capCarried bool) {
	s.p, s.prices, s.bids, s.capped = p, prices, 0, false
	s.eps = opts.Epsilon
	if s.eps <= 0 {
		s.eps = DefaultEpsilon
	}
	n := p.NumRows()
	s.rowBest = slices.Grow(s.rowBest[:0], n)[:n]
	s.rowWorst = slices.Grow(s.rowWorst[:0], n)[:n]
	for i, arcs := range p.Rows {
		best, worst := math.Inf(-1), math.Inf(1)
		for _, a := range arcs {
			best, worst = max(best, a.Benefit), min(worst, a.Benefit)
		}
		s.rowBest[i], s.rowWorst[i] = best, worst
	}
	s.admit()
	// The benefit range C of the admitted rows, the problem the bidding
	// solves; 0 when no row is admitted.
	minBenefit, maxBenefit := math.Inf(1), math.Inf(-1)
	for _, i := range s.ring {
		minBenefit, maxBenefit = min(minBenefit, s.rowWorst[i]), max(maxBenefit, s.rowBest[i])
	}
	spread := 0.0
	if maxBenefit < minBenefit {
		minBenefit = 0
	} else {
		spread = maxBenefit - minBenefit
	}
	if capCarried && len(prices) > 0 {
		ceiling := slices.Min(prices) + spread + 1
		for j, pr := range prices {
			prices[j] = min(pr, ceiling)
		}
	}
	maxPrice := 0.0
	for _, pr := range prices {
		maxPrice = max(maxPrice, pr)
	}
	// Infeasibility detection depth: a row is declared unassignable
	// only after prices have risen far enough that no augmenting chain
	// could still assign it (Bertsekas' (2n-1)·C bound, padded).
	depth := float64(2*n+1) * (spread + 1)
	s.profitFloor = minBenefit - maxPrice - depth
	s.maxRounds = 1000 + 10*(n+p.NumCols+1) + int(depth/s.eps)
}

// admit leaves in the bidder ring (see sequentialRounds) only the rows
// that a matching can hold: the rows of a maximum-cardinality matching
// built greedily, a row at a time in descending order of its best
// benefit (ties by row index), each admitted if an augmenting path
// reaches it.
// The rows a matching can hold together are the independent sets of a
// matroid, so this greedy order admits the set of rows with the
// largest total best benefit among those that can all be placed. A row
// outside it — one with no arcs, or one of k rows that reach fewer
// than k columns, which bidding could only price out through a war of
// depth/ε bids — is left unassigned before any bid. The admission
// matching is built in rowToCol and colToRow, which are cleared for
// the bidding.
func (s *state) admit() {
	n, m := s.p.NumRows(), s.p.NumCols
	s.rowToCol = unmatched(s.rowToCol, n)
	s.colToRow = unmatched(s.colToRow, m)
	s.seen = slices.Grow(s.seen[:0], m)[:m]
	clear(s.seen)
	s.stamp = 0
	s.order = s.order[:0]
	for i, arcs := range s.p.Rows {
		if len(arcs) > 0 {
			s.order = append(s.order, i)
		}
	}
	best := s.rowBest
	slices.SortFunc(s.order, func(a, b int) int {
		switch {
		case best[a] > best[b]:
			return -1
		case best[a] < best[b]:
			return 1
		}
		return a - b
	})
	admitted := 0
	for _, i := range s.order {
		if admitted == m {
			break // every column is taken: no path can reach a free one
		}
		s.stamp++
		if s.augment(i) {
			admitted++
		}
	}
	s.ring = slices.Grow(s.ring[:0], admitted)
	for i, j := range s.rowToCol {
		if j >= 0 {
			s.ring = append(s.ring, i)
			s.rowToCol[i] = -1
		}
	}
	for j := range s.colToRow {
		s.colToRow[j] = -1
	}
}

// augment extends the admission matching by an augmenting path from the
// unmatched row i, Kuhn's search: a free column of i's if there is one,
// else a column whose row can itself move on. It reports whether it
// found one. The caller bumps stamp once per row.
func (s *state) augment(i int) bool {
	arcs := s.p.Rows[i]
	for _, a := range arcs {
		if s.colToRow[a.Col] < 0 {
			s.colToRow[a.Col], s.rowToCol[i] = i, a.Col
			return true
		}
	}
	for _, a := range arcs {
		j := a.Col
		if s.seen[j] == s.stamp {
			continue
		}
		s.seen[j] = s.stamp
		if s.augment(s.colToRow[j]) {
			s.colToRow[j], s.rowToCol[i] = i, j
			return true
		}
	}
	return false
}

// unmatched returns m with length n and every entry -1, on m's backing
// array when it is large enough.
func unmatched(m []int, n int) []int {
	m = slices.Grow(m[:0], n)[:n]
	for i := range m {
		m[i] = -1
	}
	return m
}

// bestTwo computes the best and second-best profit a_ij - p_j over
// row i's arcs. ok is false when the row has no arcs.
//
//vet:hotpath
func (s *state) bestTwo(i int) (bestCol int, bestProfit, secondProfit float64, ok bool) {
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

// assign gives column j to row i, displacing and returning the prior
// owner (-1 if none).
//
//vet:hotpath
func (s *state) assign(i, j int) (displaced int) {
	displaced = s.colToRow[j]
	if displaced >= 0 {
		s.rowToCol[displaced] = -1
	}
	s.colToRow[j] = i
	s.rowToCol[i] = j
	return displaced
}

// result packages the current matching.
func (s *state) result(rounds int) Assignment {
	a := Assignment{
		RowToCol: s.rowToCol,
		ColToRow: s.colToRow,
		Rounds:   rounds,
		Bids:     s.bids,
		Capped:   s.capped,
	}
	for i, j := range s.rowToCol {
		if j >= 0 {
			for _, arc := range s.p.Rows[i] {
				if arc.Col == j {
					a.Benefit += arc.Benefit
					break
				}
			}
		}
	}
	return a
}

// Solve runs the sequential Gauss-Seidel auction: one bidder at a time
// bids, wins, and displaces — the textbook form of Algorithm 1.
func Solve(p Problem, opts Options) Assignment {
	return solveWithPrices(p, opts, make([]float64, p.NumCols))
}

// SolvePriced runs the sequential auction with caller-provided initial
// prices (len == NumCols). The slice is updated in place with the
// final dual prices, enabling warm starts and ε-CS verification.
func SolvePriced(p Problem, opts Options, prices []float64) Assignment {
	return solveWithPrices(p, opts, prices)
}

func solveWithPrices(p Problem, opts Options, prices []float64) Assignment {
	s := newState(p, prices, opts)
	return s.result(sequentialRounds(s))
}

// sequentialRounds runs Gauss-Seidel bidding until no assignable row
// remains unassigned; returns rounds executed.
//
//vet:hotpath
func sequentialRounds(s *state) int {
	// FIFO of unassigned admitted rows, oldest at head, which admit
	// fills in index order; a row found unassignable (priced out) is
	// dropped. Its capacity, the number of admitted rows, is exact: a
	// row enters the ring at the start or when it is displaced, it can
	// only be displaced after it was popped and assigned, so no row is
	// ever in the ring twice.
	ring := s.ring
	head, queued := 0, len(ring)
	rounds := 0
	for queued > 0 && rounds < s.maxRounds {
		rounds++
		i := ring[head]
		if head++; head == len(ring) {
			head = 0
		}
		queued--
		j, best, second, ok := s.bestTwo(i)
		if !ok || best < s.profitFloor {
			continue // unassignable
		}
		s.bids++
		// Price rises by the bid increment: best-second+ε (Line 9 of
		// Algorithm 1: p_{j1} ← a_{ij1} − a_{ij2} + p_{j2} + ε).
		s.prices[j] += best - second + s.eps
		if displaced := s.assign(i, j); displaced >= 0 {
			if queued == len(ring) {
				panic("auction: bidder ring overflow: a row was queued twice")
			}
			tail := head + queued
			if tail >= len(ring) {
				tail -= len(ring)
			}
			ring[tail] = displaced
			queued++
		}
	}
	s.capped = queued > 0
	return rounds
}
