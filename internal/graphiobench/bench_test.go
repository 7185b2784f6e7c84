package graphiobench

import (
	"testing"

	"subtrav/internal/benchkit"
)

// BenchmarkGraphio runs the suite's table under testing.B; CI does, at
// -benchtime=1x.
func BenchmarkGraphio(b *testing.B) { benchkit.Bench(b, Table()) }

// TestRunSmoke proves the emitter end to end: a smoke run over the
// full matrix must produce a well-formed report with every cell, a
// speedup entry per (op, size), resident numbers per size — and the
// v2 path must already clear the 10x allocation floor (allocation
// counts are deterministic, unlike timings).
func TestRunSmoke(t *testing.T) {
	rep, err := Run(true, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Smoke {
		t.Error("smoke flag not set")
	}
	wantCells := len(Sizes) * len(Metas) * 2 // ops
	if len(rep.Speedup) != wantCells {
		t.Errorf("speedup entries: %d, want %d", len(rep.Speedup), wantCells)
	}
	if len(rep.Results) != 2*wantCells {
		t.Errorf("results: %d, want %d", len(rep.Results), 2*wantCells)
	}
	for _, res := range rep.Results {
		if res.Iters != 1 {
			t.Errorf("%s: smoke iters = %d, want 1", res.Name, res.Iters)
		}
		if res.NsPerOp <= 0 {
			t.Errorf("%s: ns/op = %g, want > 0", res.Name, res.NsPerOp)
		}
	}
	if err := rep.Check(); err != nil {
		t.Errorf("threshold check: %v", err)
	}
	// The zero-copy load retains less heap than the gob decode.
	for i := 0; i < len(rep.Results); i += 4 {
		if gob, csr := rep.Results[i], rep.Results[i+1]; csr.RetainedBytes <= 0 || csr.RetainedBytes >= gob.RetainedBytes {
			t.Errorf("%s retains %d B, %s %d B; want 0 < csr < gob", csr.Name, csr.RetainedBytes, gob.Name, gob.RetainedBytes)
		}
	}
}

// TestFirstQueryAgrees pins that both formats decode to graphs whose
// full adjacency sweep produces the same checksum — a cheap
// differential guard inside the benchmark package itself.
func TestFirstQueryAgrees(t *testing.T) {
	fx, err := NewFixture(Sizes[0], true)
	if err != nil {
		t.Fatal(err)
	}
	gobG, err := fx.LoadGob()
	if err != nil {
		t.Fatal(err)
	}
	csrG, err := fx.LoadCSR()
	if err != nil {
		t.Fatal(err)
	}
	want := FirstQuery(fx.Graph)
	if got := FirstQuery(gobG); got != want {
		t.Errorf("gob sweep checksum %d, want %d", got, want)
	}
	if got := FirstQuery(csrG); got != want {
		t.Errorf("csr sweep checksum %d, want %d", got, want)
	}
}
