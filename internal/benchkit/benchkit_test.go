package benchkit

import (
	"errors"
	"strings"
	"testing"
)

var sink []byte

func TestSmokeIsOneWarmUpPlusOneTimedCall(t *testing.T) {
	calls := 0
	rep, err := Run("t", true, []Group{func() ([]Cell, error) {
		return []Cell{{Name: "x", Run: func() error { calls++; return nil }}}, nil
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 || rep.Results[0].Iters != 1 {
		t.Errorf("smoke made %d calls and timed %d, want 2 and 1", calls, rep.Results[0].Iters)
	}
}

// Allocation counts are process-wide, so a stray runtime malloc may
// land in the window: they are read as `go test -benchmem` prints them.
func TestMeasureCountsAllocsAndCounter(t *testing.T) {
	var events int64
	res, err := Measure(1000, Cell{
		Run:   func() error { sink = make([]byte, 64); events += 3; return nil },
		Count: func() int64 { return events },
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(res.AllocsPerOp) != 1 || int(res.BytesPerOp)/64 != 1 || res.CountPerOp != 3 {
		t.Errorf("got %.2f allocs/op, %.0f B/op, %.0f count/op; want 1, 64, 3", res.AllocsPerOp, res.BytesPerOp, res.CountPerOp)
	}
}

func TestFailingCellStopsTheSuiteAndIsNamed(t *testing.T) {
	boom := errors.New("boom")
	ran := map[string]int{}
	cell := func(name string, err error) Cell {
		return Cell{Name: name, Run: func() error { ran[name]++; return err }}
	}
	table := []Group{func() ([]Cell, error) {
		return []Cell{cell("a", nil), cell("b", boom), cell("c", nil)}, nil
	}}
	_, err := Run("t", false, table, nil)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "cell b") {
		t.Errorf("Run error = %v, want boom naming cell b", err)
	}
	if ran["a"] == 0 || ran["b"] != 1 || ran["c"] != 0 {
		t.Errorf("calls %v, want a run, b stopped at its first call, c never started", ran)
	}
	if err := Each(table, func(c Cell) error { return c.Run() }); !errors.Is(err, boom) || !strings.Contains(err.Error(), "cell b") {
		t.Errorf("Each error = %v, want boom naming cell b", err)
	}
}

func TestCompareAlternatesAndSwapsTheLead(t *testing.T) {
	var seq []byte
	side := func(c byte) func() error { return func() error { seq = append(seq, c); return nil } }
	if _, err := Compare(4, 1, 2, side('a'), side('b')); err != nil {
		t.Fatal(err)
	}
	if got, want := string(seq), "abb"+"bba"+"abb"+"bba"; got != want {
		t.Errorf("call sequence %q, want %q", got, want)
	}
}

func TestCheckBindsCountsInSmokeAndFullRuns(t *testing.T) {
	for _, c := range []struct {
		smoke bool
		sp    Speedup
		ok    bool
	}{
		{true, Speedup{AllocRatio: 5, Floor: Floor{Allocs: 10}}, false},
		{false, Speedup{CountRatio: 1, Floor: Floor{Count: 2}}, false},
		{false, Speedup{Ns: Band{Median: 0.1}, CountRatio: 3, Floor: Floor{Count: 2}}, true},
	} {
		rep := &Report{Smoke: c.smoke, Results: []Result{{Name: "old"}}, Speedup: map[string]Speedup{"old": c.sp}}
		if err := rep.Check(); (err == nil) != c.ok {
			t.Errorf("smoke=%v %+v: Check() = %v, want ok=%v", c.smoke, c.sp, err, c.ok)
		}
	}
}

func TestCheckBindsAllocCeilingsOnFullRunsOnly(t *testing.T) {
	for _, c := range []struct {
		smoke bool
		res   Result
		ok    bool
	}{
		{false, Result{NoAlloc: true, AllocsPerOp: 0.99}, true}, // a stray process-wide malloc
		{false, Result{NoAlloc: true, AllocsPerOp: 1}, false},
		{false, Result{MaxAllocs: 1, AllocsPerOp: 1.5}, true},
		{false, Result{MaxAllocs: 1, AllocsPerOp: 2}, false},
		{true, Result{MaxAllocs: 1, AllocsPerOp: 40}, true}, // one warm-up call is not steady state
		{false, Result{AllocsPerOp: 40}, true},              // ungated
	} {
		rep := &Report{Smoke: c.smoke, Results: []Result{c.res}}
		if err := rep.Check(); (err == nil) != c.ok {
			t.Errorf("smoke=%v %+v: Check() = %v, want ok=%v", c.smoke, c.res, err, c.ok)
		}
	}
}
