package auction

import (
	"reflect"
	"testing"
)

// auctionBytes hands out a byte string one byte at a time, zeros once it
// is spent.
type auctionBytes struct {
	data []byte
	pos  int
}

func (b *auctionBytes) more() bool { return b.pos < len(b.data) }

func (b *auctionBytes) next() int {
	if !b.more() {
		return 0
	}
	b.pos++
	return int(b.data[b.pos-1])
}

// fuzzEpsilons are the increments a stream may bid at; 0 is
// DefaultEpsilon.
var fuzzEpsilons = [...]float64{1e-3, 0.01, 0.05, 0}

// decodeRounds decodes a stream of sparse problems on one column count:
// a byte for the column count (1–10) and one for ε, then per round a
// byte for the row count (0–2·cols), and per row a byte for its arc
// count and a (column, benefit) byte pair per arc. Benefits lie on a
// grid of eighths in [0, 2), so ties — and wars decided ε at a time —
// are common; a row's repeated column is skipped.
func decodeRounds(data []byte) (cols int, eps float64, rounds []Problem) {
	b := &auctionBytes{data: data}
	cols = 1 + b.next()%10
	eps = fuzzEpsilons[b.next()%len(fuzzEpsilons)]
	for b.more() {
		p := Problem{NumCols: cols, Rows: make([][]Arc, b.next()%(2*cols+1))}
		for i := range p.Rows {
			arcs := b.next() % (cols + 1)
		arc:
			for k := 0; k < arcs; k++ {
				a := Arc{Col: b.next() % cols, Benefit: float64(b.next()%16) / 8}
				for _, prev := range p.Rows[i] {
					if prev.Col == a.Col {
						continue arc
					}
				}
				p.Rows[i] = append(p.Rows[i], a)
			}
		}
		rounds = append(rounds, p)
	}
	return cols, eps, rounds
}

// encodeRounds is decodeRounds' inverse for problems on its grid.
func encodeRounds(cols, epsIndex int, rounds ...Problem) []byte {
	data := []byte{byte(cols - 1), byte(epsIndex)}
	for _, p := range rounds {
		data = append(data, byte(p.NumRows()))
		for _, arcs := range p.Rows {
			data = append(data, byte(len(arcs)))
			for _, a := range arcs {
				data = append(data, byte(a.Col), byte(a.Benefit*8))
			}
		}
	}
	return data
}

// runAuctioneerRounds puts the decoded stream through one Auctioneer,
// prices carried from round to round, and checks every round: the
// matching is valid, bidding converged before the round cap, the rows
// placed number exactly a maximum matching's cardinality — admission
// keeps that many rows and bidding places every one — and the final
// prices hold ε-CS with the placement.
func runAuctioneerRounds(t *testing.T, data []byte) {
	t.Helper()
	cols, eps, rounds := decodeRounds(data)
	a, err := NewAuctioneer(AuctioneerConfig{NumCols: cols, Options: Options{Epsilon: eps}})
	if err != nil {
		t.Fatal(err)
	}
	if eps == 0 {
		eps = DefaultEpsilon
	}
	for r, p := range rounds {
		got, err := a.Assign(p)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if err := VerifyMatching(p, got); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if got.Capped {
			t.Fatalf("round %d: bidding stopped at the round cap after %d rounds and %d bids", r, got.Rounds, got.Bids)
		}
		if want := refMatchingSize(p, rowsWithArcs(p)); got.NumAssigned() != want {
			t.Fatalf("round %d: placed %d rows, a maximum matching holds %d", r, got.NumAssigned(), want)
		}
		if err := VerifyEpsilonCS(p, got, a.Prices(), eps); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
}

// FuzzAuctioneer decodes the input into warm rounds of random sparse
// problems (see decodeRounds) and checks each (see
// runAuctioneerRounds). CI runs it for ten seconds (fuzz-smoke); the
// seeds below run on every `go test`.
func FuzzAuctioneer(f *testing.F) {
	// A deficient segment: eight rows that reach only three of eight
	// columns, at equal benefit. Bidding alone would war until the cap.
	f.Add(encodeRounds(8, 0, contestedProblem(8, 8)))
	// A stale price: a single-arc row lifts its column by the whole
	// infeasibility depth, then rows that reach every column follow,
	// with the lifted column their favourite.
	lift := Problem{NumCols: 8, Rows: [][]Arc{{{Col: 0, Benefit: 1}}, {{Col: 0, Benefit: 1.5}, {Col: 1, Benefit: 1}}}}
	follow := feasibleContested(6, 8)
	for i := range follow.Rows {
		follow.Rows[i][0].Benefit = 1.5
	}
	f.Add(encodeRounds(8, 0, lift, follow, lift, follow, follow))
	// Random sparse rounds on the grid.
	f.Add(encodeRounds(4, 1, sparseProblemGrid(4, 6), sparseProblemGrid(4, 3), sparseProblemGrid(4, 8)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip("long inputs only repeat the short ones")
		}
		runAuctioneerRounds(t, data)
	})
}

// sparseProblemGrid is a fixed sparse problem on decodeRounds' grid:
// row i reaches columns i, i+1 and i+3 (mod cols) at benefits that
// repeat every four rows.
func sparseProblemGrid(cols, rows int) Problem {
	p := Problem{NumCols: cols, Rows: make([][]Arc, rows)}
	for i := range p.Rows {
		for k, step := range []int{0, 1, 3} {
			col := (i + step) % cols
			dup := false
			for _, a := range p.Rows[i] {
				dup = dup || a.Col == col
			}
			if !dup {
				p.Rows[i] = append(p.Rows[i], Arc{Col: col, Benefit: float64((i%4)*(k+1)) / 8})
			}
		}
	}
	return p
}

// TestFuzzSeedsDecodeAsEncoded: the seeds are the problems they name.
func TestFuzzSeedsDecodeAsEncoded(t *testing.T) {
	want := []Problem{contestedProblem(8, 8), feasibleContested(6, 8), sparseProblemGrid(8, 5)}
	cols, eps, got := decodeRounds(encodeRounds(8, 2, want...))
	if cols != 8 || eps != fuzzEpsilons[2] || !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %d columns at ε %g: %v, want 8 at %g: %v", cols, eps, got, fuzzEpsilons[2], want)
	}
}
