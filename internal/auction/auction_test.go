package auction

import (
	"math"
	"testing"
	"testing/quick"

	"subtrav/internal/xrand"
)

// randomDense generates an n×m benefit matrix with entries in [0,1).
func randomDense(rng *xrand.RNG, n, m int) [][]float64 {
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, m)
		for j := range b[i] {
			b[i][j] = rng.Float64()
		}
	}
	return b
}

func TestSolveTiny(t *testing.T) {
	// Row 0 prefers col 1, row 1 prefers col 1 more; optimal total is
	// 0.9 + 0.8 = 1.7 with row0→col0, row1→col1.
	b := [][]float64{
		{0.8, 0.9},
		{0.1, 1.0},
	}
	a := Solve(Dense(b), Options{Epsilon: 1e-6})
	if a.RowToCol[0] != 0 || a.RowToCol[1] != 1 {
		t.Errorf("assignment = %v, want [0 1]", a.RowToCol)
	}
	if math.Abs(a.Benefit-1.8) > 1e-9 {
		t.Errorf("benefit = %g, want 1.8", a.Benefit)
	}
}

func TestSolveIdentityBest(t *testing.T) {
	// Strong diagonal: optimal assignment is the identity.
	n := 8
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		for j := range b[i] {
			if i == j {
				b[i][j] = 10
			} else {
				b[i][j] = 1
			}
		}
	}
	for _, solver := range []struct {
		name string
		run  func(Problem, Options) Assignment
	}{{"sequential", Solve}, {"parallel", SolveParallel}} {
		a := solver.run(Dense(b), Options{Epsilon: 0.01})
		for i := 0; i < n; i++ {
			if a.RowToCol[i] != i {
				t.Errorf("%s: row %d -> %d, want %d", solver.name, i, a.RowToCol[i], i)
			}
		}
	}
}

func TestEpsilonOptimalityVsExact(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(10)
		m := n + rng.Intn(6)
		b := randomDense(rng, n, m)
		exact, err := SolveExact(b)
		if err != nil {
			t.Fatal(err)
		}
		p := Dense(b)
		eps := 1e-4
		for _, solver := range []struct {
			name string
			run  func(Problem, Options) Assignment
		}{{"sequential", Solve}, {"parallel", SolveParallel}} {
			a := solver.run(p, Options{Epsilon: eps})
			if err := VerifyMatching(p, a); err != nil {
				t.Fatalf("%s trial %d: %v", solver.name, trial, err)
			}
			if a.NumAssigned() != n {
				t.Fatalf("%s trial %d: assigned %d of %d rows", solver.name, trial, a.NumAssigned(), n)
			}
			bound := exact.Benefit - float64(n)*eps
			if a.Benefit < bound-1e-9 {
				t.Errorf("%s trial %d: benefit %g < exact %g - nε (%g)",
					solver.name, trial, a.Benefit, exact.Benefit, bound)
			}
			if a.Benefit > exact.Benefit+1e-9 {
				t.Errorf("%s trial %d: benefit %g exceeds exact optimum %g",
					solver.name, trial, a.Benefit, exact.Benefit)
			}
		}
	}
}

func TestEpsilonCSInvariant(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(12)
		m := n + rng.Intn(8)
		p := Dense(randomDense(rng, n, m))
		eps := 0.01
		prices := make([]float64, m)
		a := SolvePriced(p, Options{Epsilon: eps}, prices)
		if err := VerifyEpsilonCS(p, a, prices, eps); err != nil {
			t.Errorf("sequential trial %d: %v", trial, err)
		}
		prices2 := make([]float64, m)
		a2 := SolveParallelPriced(p, Options{Epsilon: eps}, prices2)
		if err := VerifyEpsilonCS(p, a2, prices2, eps); err != nil {
			t.Errorf("parallel trial %d: %v", trial, err)
		}
	}
}

func TestSparseVsBruteForce(t *testing.T) {
	rng := xrand.New(31)
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(7)
		m := 1 + rng.Intn(7)
		p := Problem{NumCols: m, Rows: make([][]Arc, n)}
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if rng.Float64() < 0.5 {
					p.Rows[i] = append(p.Rows[i], Arc{Col: j, Benefit: rng.Float64()})
				}
			}
		}
		bf := SolveBruteForce(p)
		eps := 1e-5
		a := Solve(p, Options{Epsilon: eps})
		if err := VerifyMatching(p, a); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if bf.NumAssigned() == n {
			// Feasible (every row assignable simultaneously): the
			// auction must match everyone and be ε-close to optimal.
			if a.NumAssigned() != n {
				t.Fatalf("trial %d: auction matched %d of %d rows",
					trial, a.NumAssigned(), n)
			}
			if a.Benefit < bf.Benefit-float64(n)*eps-1e-9 {
				t.Errorf("trial %d: benefit %g vs optimal %g", trial, a.Benefit, bf.Benefit)
			}
		} else if a.NumAssigned() > bf.NumAssigned() {
			// Infeasible instances carry no optimality guarantee, but
			// the auction can never exceed the true maximum matching.
			t.Errorf("trial %d: auction matched %d > maximum %d",
				trial, a.NumAssigned(), bf.NumAssigned())
		}
	}
}

func TestRowWithNoArcs(t *testing.T) {
	p := Problem{NumCols: 2, Rows: [][]Arc{
		{{Col: 0, Benefit: 1}},
		nil, // unassignable
		{{Col: 1, Benefit: 1}},
	}}
	a := Solve(p, Options{})
	if a.RowToCol[1] != -1 {
		t.Errorf("arcless row assigned to %d", a.RowToCol[1])
	}
	if a.NumAssigned() != 2 {
		t.Errorf("assigned %d, want 2", a.NumAssigned())
	}
	un := a.Unassigned()
	if len(un) != 1 || un[0] != 1 {
		t.Errorf("Unassigned = %v, want [1]", un)
	}
}

func TestInfeasibleContention(t *testing.T) {
	// Three rows all admissible to a single column: exactly one can
	// win; the others must be dropped without livelock.
	p := Problem{NumCols: 1, Rows: [][]Arc{
		{{Col: 0, Benefit: 5}},
		{{Col: 0, Benefit: 4}},
		{{Col: 0, Benefit: 3}},
	}}
	for _, solver := range []struct {
		name string
		run  func(Problem, Options) Assignment
	}{{"sequential", Solve}, {"parallel", SolveParallel}} {
		a := solver.run(p, Options{Epsilon: 0.5})
		if a.NumAssigned() != 1 {
			t.Errorf("%s: assigned %d, want 1", solver.name, a.NumAssigned())
		}
		if err := VerifyMatching(p, a); err != nil {
			t.Errorf("%s: %v", solver.name, err)
		}
	}
}

func TestPriceWarResolvedByEpsilon(t *testing.T) {
	// Two rows with identical benefits on two columns: without ε the
	// naive auction stagnates (Section V-B); with ε it must terminate.
	b := [][]float64{
		{1, 1},
		{1, 1},
	}
	a := Solve(Dense(b), Options{Epsilon: 0.01})
	if a.NumAssigned() != 2 {
		t.Fatalf("assigned %d, want 2", a.NumAssigned())
	}
	if math.Abs(a.Benefit-2) > 1e-9 {
		t.Errorf("benefit = %g, want 2", a.Benefit)
	}
}

func TestMoreRowsThanCols(t *testing.T) {
	rng := xrand.New(17)
	b := randomDense(rng, 6, 3)
	p := Dense(b)
	a := Solve(p, Options{Epsilon: 1e-3})
	if a.NumAssigned() != 3 {
		t.Errorf("assigned %d, want 3 (every column filled)", a.NumAssigned())
	}
	if err := VerifyMatching(p, a); err != nil {
		t.Error(err)
	}
}

func TestParallelDeterministic(t *testing.T) {
	rng := xrand.New(41)
	b := randomDense(rng, 32, 40)
	p := Dense(b)
	first := SolveParallel(p, Options{Epsilon: 1e-3, Workers: 4})
	for i := 0; i < 5; i++ {
		again := SolveParallel(p, Options{Epsilon: 1e-3, Workers: 4})
		for r := range first.RowToCol {
			if first.RowToCol[r] != again.RowToCol[r] {
				t.Fatalf("parallel auction nondeterministic at row %d", r)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	bad := Problem{NumCols: 2, Rows: [][]Arc{{{Col: 5, Benefit: 1}}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range column should fail validation")
	}
	nan := Problem{NumCols: 1, Rows: [][]Arc{{{Col: 0, Benefit: math.NaN()}}}}
	if err := nan.Validate(); err == nil {
		t.Error("NaN benefit should fail validation")
	}
	ok := Problem{NumCols: 2, Rows: [][]Arc{{{Col: 1, Benefit: 1}}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
}

func TestSolveExactErrors(t *testing.T) {
	if _, err := SolveExact([][]float64{{1}, {2}}); err == nil {
		t.Error("rows > cols should error")
	}
	if _, err := SolveExact([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix should error")
	}
	if a, err := SolveExact(nil); err != nil || a.Benefit != 0 {
		t.Errorf("empty matrix: %v %v", a, err)
	}
}

func TestSolveExactKnown(t *testing.T) {
	// Classic 3x3 with known optimum 2+4+9=15 (rows 0→2? verify):
	// benefits: maximize.
	b := [][]float64{
		{7, 4, 3},
		{6, 8, 5},
		{9, 4, 4},
	}
	a, err := SolveExact(b)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: row0→col1(4)? enumerate: perms and sums:
	// 7+8+4=19, 7+5+4=16, 4+6+4=14, 4+5+9=18, 3+6+4=13, 3+8+9=20.
	if math.Abs(a.Benefit-20) > 1e-9 {
		t.Errorf("exact benefit = %g, want 20", a.Benefit)
	}
	want := []int{2, 1, 0}
	for i := range want {
		if a.RowToCol[i] != want[i] {
			t.Errorf("exact assignment = %v, want %v", a.RowToCol, want)
		}
	}
}

// Property: on random dense feasible problems, both auction variants
// produce valid matchings that assign min(n,m) pairs.
func TestFullCardinalityQuick(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw)%10 + 1
		m := int(mRaw)%10 + 1
		rng := xrand.New(seed)
		p := Dense(randomDense(rng, n, m))
		want := n
		if m < n {
			want = m
		}
		a := Solve(p, Options{Epsilon: 0.01})
		a2 := SolveParallel(p, Options{Epsilon: 0.01})
		return a.NumAssigned() == want && a2.NumAssigned() == want &&
			VerifyMatching(p, a) == nil && VerifyMatching(p, a2) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
