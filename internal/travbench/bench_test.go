package travbench

import (
	"testing"

	"subtrav/internal/benchkit"
)

// BenchmarkTraverse runs the suite's table under testing.B; CI does, at
// -benchtime=1x.
func BenchmarkTraverse(b *testing.B) { benchkit.Bench(b, Table()) }

// TestRunSmoke proves the emitter end to end: a smoke run over the
// full matrix must produce a well-formed report with every cell and a
// speedup entry per compared pair.
func TestRunSmoke(t *testing.T) {
	rep, err := Run(true, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Smoke {
		t.Error("smoke flag not set")
	}
	grid := len(Sizes) * len(Degrees)
	// Per grid cell: ws↔ref for 4 ops.
	wantCells := grid * 4
	if len(rep.Speedup) != wantCells {
		t.Errorf("speedup entries: %d, want %d", len(rep.Speedup), wantCells)
	}
	// Per grid cell: 4 ops x (ws, ref).
	wantResults := grid * 4 * 2
	if len(rep.Results) != wantResults {
		t.Errorf("results: %d, want %d", len(rep.Results), wantResults)
	}
	for _, res := range rep.Results {
		if res.Iters != 1 {
			t.Errorf("%s: smoke iters = %d, want 1", res.Name, res.Iters)
		}
		if res.NsPerOp <= 0 {
			t.Errorf("%s: ns/op = %g, want > 0", res.Name, res.NsPerOp)
		}
	}
	// The count floors (0 allocs/op on every workspace cell, the
	// mid-size BFS alloc ratio) hold on single-iteration samples.
	if err := rep.Check(); err != nil {
		t.Error(err)
	}
}
