package schedbench

import (
	"testing"

	"subtrav/internal/benchkit"
)

// BenchmarkSched runs the suite's table under testing.B; CI does, at
// -benchtime=1x.
func BenchmarkSched(b *testing.B) { benchkit.Bench(b, Table()) }

// TestRunSmoke pins the emitter: a smoke run must produce a result for
// every cell the issue tracks and a speedup entry per (P, degree).
func TestRunSmoke(t *testing.T) {
	rep, err := Run(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Smoke {
		t.Error("smoke run not marked as smoke")
	}
	// Per (P, degree) the snap and ref builds; per P a round, the
	// auction alone, Record, RecordTrace and RecordLoop.
	want := len(UnitCounts)*len(Degrees)*2 + 5*len(UnitCounts)
	if len(rep.Results) != want {
		t.Errorf("got %d results, want %d", len(rep.Results), want)
	}
	// A ref÷snap pair per (P, degree) and a RecordLoop÷RecordTrace pair
	// per P.
	if want := len(UnitCounts)*len(Degrees) + len(UnitCounts); len(rep.Speedup) != want {
		t.Errorf("got %d speedup cells, want %d", len(rep.Speedup), want)
	}
	for _, r := range rep.Results {
		if r.NsPerOp <= 0 || r.Iters != 1 {
			t.Errorf("%s: ns/op=%g iters=%d, want positive single-iteration sample", r.Name, r.NsPerOp, r.Iters)
		}
	}
	// Even a single-iteration sample shows the lock-budget gaps: the
	// snapshot path takes one lock per distinct closure vertex, the
	// reference path ~P per closure vertex per task; RecordTrace takes
	// one per stripe, the loop one per vertex.
	for cell, sp := range rep.Speedup {
		if sp.CountRatio < 2 {
			t.Errorf("%s: lock ratio %.2f, want the versus side to hold a clear lock advantage", cell, sp.CountRatio)
		}
	}
	if err := rep.Check(); err != nil {
		t.Error(err)
	}
}
