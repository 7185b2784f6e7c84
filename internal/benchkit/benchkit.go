// Package benchkit is the one home of timing and reporting for the
// in-repo benchmark suites (schedbench, travbench, graphiobench,
// sharebench); bench/, the repository's end-to-end benchmark, is its
// own module with its own harness.
//
// A suite is its fixtures plus one table of named Cells, built fixture
// by fixture (Group). `go test -bench` walks the table through Bench
// and `subtrav-bench <suite>` through Run, so a cell — name, closure,
// the baseline it is compared with, the floor that comparison must
// clear — is declared once. A before/after pair is never read off two
// separate timing windows (this VM drifts by a third for minutes at a
// time): Compare alternates the sides round by round and reports the
// median per-round ratio with its quartiles.
package benchkit

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"
	"time"
)

// Cell is one named, repeatable operation of a suite.
type Cell struct {
	Name string
	Run  func() error
	// Count, when set, reads a monotone event counter (signature-table
	// lock acquisitions, say); its growth is reported per operation.
	Count func() int64
	// Retained, when set, returns the value whose retained heap the
	// report should carry (a decoded graph, say).
	Retained func() (any, error)
	// Versus names the cell of the same group this one is the baseline
	// of: the report carries Speedup[Name] = this cell ÷ Versus, so a
	// value above 1 means Versus is the cheaper side. Floor gates it.
	Versus string
	Floor  Floor
	// NoAlloc requires a full run to measure the cell at 0 allocs/op,
	// rounded down as `go test -benchmem` prints it. MaxAllocs, when
	// positive, is the same gate for an operation that hands back
	// memory it had to allocate: at most that many allocs/op.
	NoAlloc   bool
	MaxAllocs int
}

// Group builds one fixture and returns its cells. Building group by
// group keeps one fixture live at a time: a forced GC precedes every
// measurement and, like the collections an allocating cell triggers,
// costs in proportion to the live heap.
type Group func() ([]Cell, error)

// Floor holds the minimum acceptable ratios of one baseline÷versus
// pair; a zero field is not checked. Both are counts, never wall-clock,
// so they hold in smoke runs too and a gate cannot flap with the VM.
type Floor struct {
	Allocs float64 `json:"allocs,omitempty"`
	Count  float64 `json:"count,omitempty"`
}

// Result is one measured cell.
type Result struct {
	Name          string  `json:"name"`
	Iters         int     `json:"iters"`
	NsPerOp       float64 `json:"ns_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	CountPerOp    float64 `json:"count_per_op,omitempty"`
	RetainedBytes int64   `json:"retained_bytes,omitempty"`
	NoAlloc       bool    `json:"no_alloc,omitempty"`
	MaxAllocs     int     `json:"max_allocs,omitempty"`
}

// Band is the median of a set of per-round ratios with its quartiles.
type Band struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// Speedup is one baseline÷versus comparison.
type Speedup struct {
	Versus string `json:"versus"`
	// Ns is the interleaved wall-clock ratio (Compare): reported, never
	// gated.
	Ns Band `json:"ns"`
	// AllocRatio is baseline allocs/op over versus allocs/op with the
	// denominator floored at 1 alloc/op: the versus side routinely
	// measures zero, so the reported value is a lower bound.
	AllocRatio float64 `json:"alloc_ratio"`
	// CountRatio is baseline count/op over versus count/op (0 when the
	// cells have no counter).
	CountRatio float64 `json:"count_ratio,omitempty"`
	Floor      Floor   `json:"floor"`
}

// Report is one suite run: the environment header, a Result per cell
// in table order and a Speedup per baseline cell, keyed by its name.
type Report struct {
	Suite     string `json:"suite"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// Smoke marks a run that only proves the suite executes: one
	// warm-up call and one timed call per cell.
	Smoke   bool               `json:"smoke"`
	Results []Result           `json:"results"`
	Speedup map[string]Speedup `json:"speedup"`
}

// A full run's policy: Measure times windowNanos of work, and at least
// minIters calls; Compare alternates compareRounds rounds of sliceNanos
// slices.
const (
	windowNanos   = 200e6
	minIters      = 5
	compareRounds = 21
	sliceNanos    = 10e6
)

// spin runs fn iters times and returns the elapsed wall time.
func spin(iters int, fn func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// Measure times iters calls of c.Run with allocation and counter
// accounting; hand-rolled, not testing.Benchmark, so that the iteration
// policy is explicit and independent of testing flags.
func Measure(iters int, c Cell) (Result, error) {
	var c0 int64
	if c.Count != nil {
		c0 = c.Count()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	elapsed, err := spin(iters, c.Run)
	if err != nil {
		return Result{}, err
	}
	runtime.ReadMemStats(&m1)
	n := float64(iters)
	r := Result{
		Name:        c.Name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / n,
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		NoAlloc:     c.NoAlloc,
		MaxAllocs:   c.MaxAllocs,
	}
	if c.Count != nil {
		r.CountPerOp = float64(c.Count()-c0) / n
	}
	if c.Retained != nil {
		r.RetainedBytes, err = retained(c.Retained)
	}
	return r, err
}

// retained reports the heap held by the value load returns, measured
// across a forced GC with the value still referenced.
func retained(load func() (any, error)) (int64, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	v, err := load()
	if err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(v)
	return max(int64(m1.HeapAlloc)-int64(m0.HeapAlloc), 0), nil
}

// Calibrate warms fn up (lazily built state, reusable buffers growing
// to capacity) and picks Measure's iteration count: 1 in smoke mode.
func Calibrate(smoke bool, fn func() error) (int, error) {
	if smoke {
		return 1, fn()
	}
	for iters := 1; ; iters *= 2 {
		elapsed, err := spin(iters, fn)
		if err != nil {
			return 0, err
		}
		if elapsed >= 20*time.Millisecond {
			return itersFor(windowNanos, float64(elapsed.Nanoseconds())/float64(iters), minIters), nil
		}
	}
}

// itersFor is how many calls of perOp nanoseconds fill budget, at
// least lo.
func itersFor(budget, perOp float64, lo int) int {
	return max(int(budget/max(perOp, 1)), lo)
}

// Compare measures a÷b as an interleaved ratio: each round times a
// slice of itersA calls of a and a slice of itersB calls of b, the side
// that goes first swapping every round (a b, b a, a b, …); a round's
// ratio is a's time per call over b's, so both sides of every ratio ran
// within milliseconds of each other.
func Compare(rounds, itersA, itersB int, a, b func() error) (Band, error) {
	sides := [2]struct {
		iters int
		fn    func() error
	}{{itersA, a}, {itersB, b}}
	ratios := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		var perCall [2]float64
		for _, k := range [2]int{r % 2, 1 - r%2} {
			elapsed, err := spin(sides[k].iters, sides[k].fn)
			if err != nil {
				return Band{}, err
			}
			perCall[k] = float64(elapsed.Nanoseconds()) / float64(sides[k].iters)
		}
		ratios = append(ratios, Ratio(perCall[0], perCall[1]))
	}
	slices.Sort(ratios)
	q := func(k int) float64 { return ratios[(len(ratios)-1)*k/4] }
	return Band{Q1: q(1), Median: q(2), Q3: q(3)}, nil
}

// Ratio is a/b, and 0 when b is 0 (so it stays JSON-encodable).
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Run executes a suite group by group: every cell is calibrated and
// measured in table order, then every baseline cell is compared with
// its Versus. smoke runs each cell exactly twice (warm-up, timed) and
// each comparison for one round. The first failing cell stops the run
// and the error names it.
func Run(suite string, smoke bool, table []Group, logf func(format string, args ...any)) (*Report, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &Report{
		Suite:     suite,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Smoke:     smoke,
		Speedup:   make(map[string]Speedup),
	}
	for _, group := range table {
		cells, err := group()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", suite, err)
		}
		first := len(rep.Results)
		for _, c := range cells {
			var res Result
			iters, err := Calibrate(smoke, c.Run)
			if err == nil {
				res, err = Measure(iters, c)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: cell %s: %w", suite, c.Name, err)
			}
			rep.Results = append(rep.Results, res)
			logf("%-36s %12.0f ns/op %9.1f allocs/op", c.Name, res.NsPerOp, res.AllocsPerOp)
		}
		for i, c := range cells {
			if c.Versus == "" {
				continue
			}
			j := slices.IndexFunc(cells, func(o Cell) bool { return o.Name == c.Versus })
			if j < 0 {
				return nil, fmt.Errorf("%s: cell %s: versus %q is not in its group", suite, c.Name, c.Versus)
			}
			base, vs := rep.Results[first+i], rep.Results[first+j]
			rounds, itersA, itersB := 1, 1, 1
			if !smoke {
				rounds = compareRounds
				itersA, itersB = itersFor(sliceNanos, base.NsPerOp, 1), itersFor(sliceNanos, vs.NsPerOp, 1)
			}
			band, err := Compare(rounds, itersA, itersB, c.Run, cells[j].Run)
			if err != nil {
				return nil, fmt.Errorf("%s: cell %s vs %s: %w", suite, c.Name, c.Versus, err)
			}
			rep.Speedup[c.Name] = Speedup{
				Versus:     c.Versus,
				Ns:         band,
				AllocRatio: Ratio(base.AllocsPerOp, max(vs.AllocsPerOp, 1)),
				CountRatio: Ratio(base.CountPerOp, vs.CountPerOp),
				Floor:      c.Floor,
			}
			logf("%-36s %.2fx [%.2f, %.2f] over %s", c.Name, band.Median, band.Q1, band.Q3, c.Versus)
		}
	}
	return rep, nil
}

// Check enforces the floors the table declared: every alloc and counter
// ratio at or above its floor and — on a full run only — every NoAlloc
// cell below 1 alloc/op, every MaxAllocs cell below one more than its
// ceiling. One warm-up call does not always bring a
// workspace to steady-state capacity, so a smoke sample cannot show the
// last; and a 200 ms window catches a stray process-wide malloc in two
// runs of five, so an exact zero would flap.
func (r *Report) Check() error {
	for _, res := range r.Results {
		if gated := res.NoAlloc || res.MaxAllocs > 0; !r.Smoke && gated && res.AllocsPerOp >= float64(res.MaxAllocs+1) {
			return fmt.Errorf("%s: %s measured %.2f allocs/op, want at most %d", r.Suite, res.Name, res.AllocsPerOp, res.MaxAllocs)
		}
		sp, gated := r.Speedup[res.Name]
		if gated && (sp.AllocRatio < sp.Floor.Allocs || sp.CountRatio < sp.Floor.Count) {
			return fmt.Errorf("%s: %s ÷ %s: allocs/op %.2fx, count/op %.2fx; floors %+v",
				r.Suite, res.Name, sp.Versus, sp.AllocRatio, sp.CountRatio, sp.Floor)
		}
	}
	return nil
}

// WriteJSON writes v as indented JSON with a trailing newline.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Each builds the table group by group and calls f on every cell in
// table order — the order of Bench's sub-benchmarks and of Run's
// Results; the first error stops the walk and names its cell.
func Each(table []Group, f func(Cell) error) error {
	for _, group := range table {
		cells, err := group()
		if err != nil {
			return err
		}
		for _, c := range cells {
			if err := f(c); err != nil {
				return fmt.Errorf("cell %s: %w", c.Name, err)
			}
		}
	}
	return nil
}

// Bench runs the table as sub-benchmarks of b, one per cell under the
// cell's own name, after the same single warm-up call as a smoke run.
func Bench(b *testing.B, table []Group) {
	err := Each(table, func(c Cell) error {
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			if err := c.Run(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if _, err := spin(b.N, c.Run); err != nil {
				b.Fatal(err)
			}
		})
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
