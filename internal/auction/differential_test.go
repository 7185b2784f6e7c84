package auction

import (
	"math"
	"slices"
	"testing"

	"subtrav/internal/xrand"
)

// sparseProblem draws a problem of the given shape: every row gets
// 0..maxArcs distinct columns with benefits on a coarse grid, so equal
// benefits — and with them price wars decided ε at a time — are common.
func sparseProblem(rng *xrand.RNG, rows, cols, maxArcs int) Problem {
	p := Problem{NumCols: cols, Rows: make([][]Arc, rows)}
	for i := range p.Rows {
		perm := rng.Perm(cols)
		for _, col := range perm[:rng.Intn(min(maxArcs, cols)+1)] {
			p.Rows[i] = append(p.Rows[i], Arc{Col: col, Benefit: float64(rng.Intn(8)) / 4})
		}
	}
	return p
}

// contestedProblem is rows bidders after the same few columns at equal
// benefit: two arcs each into the first three columns, so with more
// than three rows the auction is a price war until the losers hit the profit
// floor — (2·rows+1)/ε bids, thousands at ε = 1e-3.
func contestedProblem(rows, cols int) Problem {
	p := Problem{NumCols: cols, Rows: make([][]Arc, rows)}
	k := min(3, cols)
	for i := range p.Rows {
		p.Rows[i] = []Arc{{Col: i % k, Benefit: 1}, {Col: (i + 1) % k, Benefit: 1}}
	}
	return p
}

// singleArcProblem is the shape that starts the scheduler's price wars
// (ROADMAP): rows with one admissible column, all the same one, a few
// with a second choice. A single-arc row bids against the profit
// floor, lifting the column by the whole infeasibility depth. With
// benefits ascending by row every row outbids the one before it, so an
// auction is one bid a row — and the FIFO is as full as it can get
// throughout: behind row i wait the rows after it and, displaced one by
// one, the rows before it.
func singleArcProblem(rng *xrand.RNG, rows, cols int) Problem {
	p := Problem{NumCols: cols, Rows: make([][]Arc, rows)}
	for i := range p.Rows {
		p.Rows[i] = []Arc{{Col: 0, Benefit: 1 + float64(i)/8}}
		if i%3 == 2 {
			p.Rows[i] = append(p.Rows[i], Arc{Col: 1 + rng.Intn(cols-1), Benefit: 1})
		}
	}
	return p
}

// sameBits compares two price vectors bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestAuctioneerMatchesSliceFIFOReference is the wall under the state
// the Auctioneer now owns: ten consecutive Assign calls on one
// auctioneer, warm prices carried from each to the next, against the
// old per-call solver carrying its own price vector — same matching,
// same round and bid counts, same prices to the last bit after every
// call. The problems change shape from call to call (more rows than
// columns, fewer, none; empty rows; single-arc rows sharing a column;
// equal-benefit price wars), so the reused arrays shrink and grow.
//
// Ring occupancy: sequentialRounds panics rather than overwrite a
// queued row, so running to completion here is the assertion that the
// ring of capacity NumRows never overflows; the reference's own FIFO,
// which holds the same rows in the same order, is checked to peak at
// NumRows as well.
func TestAuctioneerMatchesSliceFIFOReference(t *testing.T) {
	t.Parallel()
	rng := xrand.New(0xA0C7)
	var bids int64
	for trial := 0; trial < 300; trial++ {
		cols := 2 + rng.Intn(9)
		eps := []float64{0, 1e-3, 0.01, 0.05}[rng.Intn(4)] // 0: DefaultEpsilon
		a, err := NewAuctioneer(AuctioneerConfig{NumCols: cols, Options: Options{Epsilon: eps}})
		if err != nil {
			t.Fatal(err)
		}
		refPrices := make([]float64, cols)
		for call := 0; call < 10; call++ {
			var p Problem
			singleArc := false
			switch rows := rng.Intn(2*cols + 1); rng.Intn(4) {
			case 0:
				p = contestedProblem(rows, cols)
			case 1:
				p = singleArcProblem(rng, 50+rng.Intn(30), cols)
				singleArc = true
			default:
				p = sparseProblem(rng, rows, cols, 1+rng.Intn(4))
			}
			want, ref := refSolvePriced(p, eps, refPrices)
			got, err := a.Assign(p)
			if err != nil {
				t.Fatalf("trial %d call %d: %v", trial, call, err)
			}
			if !slices.Equal(got.RowToCol, want.RowToCol) || !slices.Equal(got.ColToRow, want.ColToRow) {
				t.Fatalf("trial %d call %d: matching %v / %v, reference %v / %v",
					trial, call, got.RowToCol, got.ColToRow, want.RowToCol, want.ColToRow)
			}
			if got.Rounds != want.Rounds || got.Bids != want.Bids {
				t.Fatalf("trial %d call %d: %d rounds %d bids, reference %d rounds %d bids",
					trial, call, got.Rounds, got.Bids, want.Rounds, want.Bids)
			}
			if prices := a.Prices(); !sameBits(prices, refPrices) {
				t.Fatalf("trial %d call %d: prices %v, reference %v", trial, call, prices, refPrices)
			}
			if ref.peakQueue > p.NumRows() {
				t.Fatalf("trial %d call %d: FIFO reached %d rows of %d", trial, call, ref.peakQueue, p.NumRows())
			}
			if err := VerifyMatching(p, got); err != nil {
				t.Fatalf("trial %d call %d: %v", trial, call, err)
			}
			// The stream has to contain what it is for.
			if singleArc && got.Bids < 50 {
				t.Fatalf("trial %d call %d: single-arc auction of %d bids, want at least 50", trial, call, got.Bids)
			}
			bids += got.Bids
		}
	}
	t.Logf("%d bids over 3000 auctions", bids)
}

// TestStatelessSolveMatchesReference: SolvePriced builds a throw-away
// state through the same reset and the same loop.
func TestStatelessSolveMatchesReference(t *testing.T) {
	t.Parallel()
	rng := xrand.New(0x57A7E)
	for trial := 0; trial < 200; trial++ {
		cols := 1 + rng.Intn(8)
		p := sparseProblem(rng, rng.Intn(2*cols+1), cols, 3)
		warm := make([]float64, cols)
		for j := range warm {
			warm[j] = float64(rng.Intn(5)) / 2
		}
		prices, refPrices := slices.Clone(warm), slices.Clone(warm)
		got := SolvePriced(p, Options{Epsilon: 0.01}, prices)
		want, _ := refSolvePriced(p, 0.01, refPrices)
		if !slices.Equal(got.RowToCol, want.RowToCol) || got.Rounds != want.Rounds || got.Bids != want.Bids || !sameBits(prices, refPrices) {
			t.Fatalf("trial %d: %+v with prices %v, reference %+v with prices %v", trial, got, prices, want, refPrices)
		}
	}
}

// TestWarmedAssignAllocatesNothing: once the auctioneer has seen a
// problem of a size, solving another that size — here a price war of
// thousands of bids, every one of which used to cost the FIFO a slot —
// touches the allocator not at all.
func TestWarmedAssignAllocatesNothing(t *testing.T) {
	p := contestedProblem(8, 8)
	a, err := NewAuctioneer(AuctioneerConfig{NumCols: 8, Options: Options{Epsilon: 1e-3}})
	if err != nil {
		t.Fatal(err)
	}
	first, err := a.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	if first.Bids < 1000 {
		t.Fatalf("the contested problem took %d bids, want a price war", first.Bids)
	}
	allocs := testing.AllocsPerRun(20, func() {
		a.ResetPrices() // otherwise carried prices end the war early
		if _, err := a.Assign(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warmed Assign: %v allocs, want 0", allocs)
	}
}
