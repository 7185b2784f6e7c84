package experiments

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"subtrav"
	"subtrav/internal/obs"
	"subtrav/internal/sched"
)

// quickGrid is one grid over Quick() that the sweep tests share, so
// each quick cell is simulated once per test binary.
var quickGrid = sync.OnceValue(func() *Grid {
	g, err := NewGrid(Quick())
	if err != nil {
		panic(err)
	}
	return g
})

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"a", "b"},
		Notes:   []string{"hello"},
	}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("x,y", `quote"me`)

	text := tbl.Text()
	if !strings.Contains(text, "== demo ==") || !strings.Contains(text, "2.5") {
		t.Errorf("Text() = %q", text)
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "- hello") {
		t.Errorf("Markdown() = %q", md)
	}
	csv := tbl.CSV()
	if !strings.Contains(csv, `"x,y"`) || !strings.Contains(csv, `"quote""me"`) {
		t.Errorf("CSV() = %q", csv)
	}
	if tbl.Cell(0, 1) != "2.5" {
		t.Errorf("Cell = %q", tbl.Cell(0, 1))
	}
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if err := Quick().Validate(); err != nil {
		t.Errorf("quick config invalid: %v", err)
	}
	bad := Quick()
	bad.UnitsSweep = nil
	if bad.Validate() == nil {
		t.Error("empty sweep accepted")
	}
	bad = Quick()
	bad.UnitsSweep = []int{0}
	if bad.Validate() == nil {
		t.Error("zero units accepted")
	}
	bad = Quick()
	bad.Queries = 0
	if bad.Validate() == nil {
		t.Error("zero queries accepted")
	}
}

// parse helpers for table cells.
func cellFloat(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestFig8Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tables, err := Fig8(quickGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("tables = %d, want 3 apps", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) != 3 { // quick sweep: 1,2,4 units
			t.Fatalf("%s: rows = %d", tbl.Title, len(tbl.Rows))
		}
		// Shape: SCH >= baseline at the largest unit count.
		last := tbl.Rows[len(tbl.Rows)-1]
		base, sch := cellFloat(t, last[1]), cellFloat(t, last[2])
		if sch < base {
			t.Errorf("%s: SCH %.1f < baseline %.1f at max units", tbl.Title, sch, base)
		}
		// Shape: throughput grows with units under SCH.
		first := cellFloat(t, tbl.Rows[0][2])
		if cellFloat(t, last[2]) <= first {
			t.Errorf("%s: SCH throughput did not scale (%.1f -> %.1f)", tbl.Title, first, cellFloat(t, last[2]))
		}
	}
}

func TestFig9Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tables, err := Fig9(quickGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("tables = %d", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) != 4 {
			t.Fatalf("%s: rows = %d, want 4 memory points", tbl.Title, len(tbl.Rows))
		}
		// Shape: unlimited memory is at least as good as the smallest
		// budget for both schedulers.
		smallest, unlimited := tbl.Rows[0], tbl.Rows[3]
		if cellFloat(t, unlimited[2]) < cellFloat(t, smallest[2]) {
			t.Errorf("%s: SCH with unlimited memory (%.1f) worse than 0.5x (%.1f)",
				tbl.Title, cellFloat(t, unlimited[2]), cellFloat(t, smallest[2]))
		}
	}
}

func TestFig10Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tbl, err := Fig10(quickGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Speedup of the 1-unit row is 1x; speedup must increase.
	if got := cellFloat(t, tbl.Rows[0][2]); got != 1.0 {
		t.Errorf("single-unit speedup = %g", got)
	}
	prev := 0.0
	for i, row := range tbl.Rows {
		s := cellFloat(t, row[2])
		if s < prev {
			t.Errorf("speedup not monotone at row %d: %g after %g", i, s, prev)
		}
		prev = s
	}
}

func TestFig11Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tbl, err := Fig11(quickGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Shape: SCH beats baseline on both topologies.
	for _, row := range tbl.Rows {
		if cellFloat(t, row[3]) < 1.0 {
			t.Errorf("%s: SCH/baseline = %s < 1", row[0], row[3])
		}
	}
}

func TestFig12Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tbl, err := Fig12(quickGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Shape: mean improvement positive for every application.
	for _, row := range tbl.Rows {
		if cellFloat(t, row[2]) <= 0 {
			t.Errorf("%s mean improvement %s not positive", row[0], row[2])
		}
	}
}

func TestAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tables, err := Ablation(quickGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want uniform + skewed", len(tables))
	}
	tbl := tables[0]
	var policies []string
	for _, row := range tbl.Rows {
		policies = append(policies, row[0])
	}
	var want []string
	for _, p := range subtrav.Policies() {
		want = append(want, string(p))
	}
	if !slices.Equal(policies, want) {
		t.Fatalf("policies = %v, want subtrav.Policies() = %v", policies, want)
	}
	byPolicy := map[string][]string{}
	for _, row := range tbl.Rows {
		byPolicy[row[0]] = row
	}
	sch := cellFloat(t, byPolicy["sch"][1])
	base := cellFloat(t, byPolicy["baseline"][1])
	if sch <= base {
		t.Errorf("SCH (%.1f) should beat the baseline (%.1f)", sch, base)
	}
	// Hit-rate ordering between ablations is workload-dependent on the
	// hub-collapsed tiny power-law graph (every traversal reaches the
	// same hub core — the effect the paper's Figure 11 discusses), so
	// only the headline SCH-vs-baseline claim is asserted here; the
	// image-corpus experiments exercise the disjoint-cluster regime.
}

// TestAblationDiskBound holds the explanation the figures give for 64
// units: the shared disk is saturated, so qps × (1 − hit rate) is the
// same for every policy to within ±3 %, and a policy's throughput is
// set by its hit rate. It reads the checked-in
// experiments_output.txt, which CI keeps byte-equal to
// `subtrav-bench all`.
func TestAblationDiskBound(t *testing.T) {
	out, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	tables := 0
	for _, block := range strings.Split(string(out), "\n\n") {
		lines := strings.Split(block, "\n")
		if !strings.HasPrefix(lines[0], "== Ablation (") || len(lines) < 3 {
			continue
		}
		tables++
		var rows [][]string
		var mean float64
		for _, line := range lines[3:] { // title, header, rule
			if strings.HasPrefix(line, "note:") {
				break
			}
			f := strings.Fields(line)
			rows = append(rows, f)
			mean += cellFloat(t, f[1]) * (1 - cellFloat(t, f[2]))
		}
		if len(rows) < 2 {
			t.Fatalf("%s: %d rows", lines[0], len(rows))
		}
		mean /= float64(len(rows))
		for _, f := range rows {
			m := cellFloat(t, f[1]) * (1 - cellFloat(t, f[2]))
			if dev := m/mean - 1; math.Abs(dev) > 0.03 {
				t.Errorf("%s: %s qps × (1 − hit rate) = %.2f, %+.1f%% from the mean %.2f; want within ±3%%",
					lines[0], f[0], m, 100*dev, mean)
			}
		}
	}
	if tables != 2 {
		t.Fatalf("found %d ablation tables, want uniform + zipf", tables)
	}
}

func TestEpsilonSweep(t *testing.T) {
	tbl, err := EpsilonSweep(3, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Gap shrinks (weakly) as ε shrinks.
	prevGap := cellFloat(t, tbl.Rows[0][2])
	for _, row := range tbl.Rows[1:] {
		gap := cellFloat(t, row[2])
		if gap > prevGap+1e-9 {
			t.Errorf("gap grew as ε shrank: %g -> %g", prevGap, gap)
		}
		prevGap = gap
	}
	if _, err := EpsilonSweep(1, 0); err == nil {
		t.Error("zero size accepted")
	}
}

func TestWarmStartStudy(t *testing.T) {
	tbl, err := WarmStartStudy(5, 24, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var warm, cold int
	for _, row := range tbl.Rows {
		warm += int(cellFloat(t, row[1]))
		cold += int(cellFloat(t, row[2]))
	}
	if warm >= cold {
		t.Errorf("warm starts (%d rounds) did not beat cold starts (%d rounds)", warm, cold)
	}
	if _, err := WarmStartStudy(1, 0, 1); err == nil {
		t.Error("invalid shape accepted")
	}
}

// TestShareSmoke holds the sharing study's floor on the quick table:
// on the gated hot cell lockstep batching issues at least 2x fewer disk
// reads, and every query answers the same in both modes.
func TestShareSmoke(t *testing.T) {
	tbl, err := Share(quickGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want the hot cell's baseline and batch rows", len(tbl.Rows))
	}
	batch := tbl.Rows[1]
	if batch[0] != "hot/P=8" {
		t.Fatalf("quick cell = %q, want hot/P=8", batch[0])
	}
	if r := cellFloat(t, batch[6]); r < 2.0 {
		t.Errorf("batching cut disk reads only %.2fx, want >= 2x", r)
	}
	if batch[7] != "identical" {
		t.Errorf("query results %s across sharing modes", batch[7])
	}
}

// TestShareDeterministic holds that the sharing table is a pure function
// of the fixture: the figures drift gate cmps it byte for byte.
func TestShareDeterministic(t *testing.T) {
	tbl, err := Share(quickGrid())
	if err != nil {
		t.Fatal(err)
	}
	again, err := Share(quickGrid())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := tbl.Text(), again.Text(); a != b {
		t.Errorf("tables differ across identical runs:\n%s\n---\n%s", a, b)
	}
}

func TestLatencyUnderLoadQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tbl, err := LatencyUnderLoad(quickGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 load points", len(tbl.Rows))
	}
	// Latency should grow (weakly) with load for both schedulers.
	parse := func(s string) float64 {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("duration %q: %v", s, err)
		}
		return d.Seconds()
	}
	lowBase := parse(tbl.Rows[0][2])
	highBase := parse(tbl.Rows[len(tbl.Rows)-1][2])
	if highBase < lowBase/2 {
		t.Errorf("baseline p95 fell sharply with load: %g -> %g", lowBase, highBase)
	}
}

func TestHeterogeneousQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tbl, err := Heterogeneous(quickGrid())
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string][]string{}
	for _, row := range tbl.Rows {
		byPolicy[row[0]] = row
	}
	rrShare := cellFloat(t, byPolicy["round-robin"][2])
	llShare := cellFloat(t, byPolicy["least-loaded"][2])
	if llShare >= rrShare {
		t.Errorf("least-loaded slow share %.1f%% should undercut round-robin %.1f%%", llShare, rrShare)
	}
	schThpt := cellFloat(t, byPolicy["sch"][1])
	rrThpt := cellFloat(t, byPolicy["round-robin"][1])
	if schThpt <= rrThpt {
		t.Errorf("SCH (%.1f) should beat round-robin (%.1f) on a degraded cluster", schThpt, rrThpt)
	}
}

func TestPartitionedLayoutQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tbl, err := PartitionedLayout(quickGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Cheaper local seeks also shift the event interleaving, so
	// small-scale throughput can wobble a few percent either way;
	// assert it stays in band and that local seeks actually occur.
	schOblivious := cellFloat(t, tbl.Rows[0][2])
	schLocal := cellFloat(t, tbl.Rows[1][2])
	if schLocal < 0.75*schOblivious {
		t.Errorf("layout locality collapsed SCH throughput: %.1f -> %.1f", schOblivious, schLocal)
	}
	if !strings.Contains(tbl.Rows[1][3], "/") || strings.HasPrefix(tbl.Rows[1][3], "0/") {
		t.Errorf("no local seeks recorded: %q", tbl.Rows[1][3])
	}
}

func TestParameterSweepsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	sig, err := SignatureCapacity(quickGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(sig.Rows) != 5 {
		t.Fatalf("signature rows = %d", len(sig.Rows))
	}
	eta, err := EtaThreshold(quickGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(eta.Rows) != 5 {
		t.Fatalf("eta rows = %d", len(eta.Rows))
	}
	// Every cell is a sane positive throughput.
	for _, tbl := range []*Table{sig, eta} {
		for _, row := range tbl.Rows {
			if cellFloat(t, row[1]) <= 0 {
				t.Errorf("%s: row %v has non-positive throughput", tbl.Title, row)
			}
		}
	}
}

// TestQuickSweepNeverCapsAnAuction runs every study of subtrav-bench's
// quick sweep and reads each sched.Auction scheduler's
// subtrav_sched_auction_capped_total when its run is over: admission
// leaves every auction a problem a matching can hold, so none stops at
// the round cap. (Before admission the ε-war over rows that
// reach too few units ran to the cap.)
func TestQuickSweepNeverCapsAnAuction(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick sweep")
	}
	cfg := Quick()
	var auctions, capped, bidRounds int64
	cfg.observe = func(s sched.Scheduler) {
		a, ok := s.(*sched.Auction)
		if !ok {
			return
		}
		reg := obs.NewRegistry()
		a.Register(reg)
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		auctions++
		capped += counterValue(t, b.String(), "subtrav_sched_auction_capped_total")
		bidRounds += counterValue(t, b.String(), "subtrav_sched_auction_bid_rounds_total")
	}
	g, err := NewGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range Studies {
		if _, err := st.Run(g); err != nil {
			t.Fatalf("%s: %v", st.Name, err)
		}
	}
	if auctions == 0 || bidRounds == 0 {
		t.Fatalf("%d auction schedulers ran %d bidding rounds: the sweep reached no auction", auctions, bidRounds)
	}
	if capped != 0 {
		t.Errorf("%d auctions across %d schedulers stopped at the round cap, want 0", capped, auctions)
	}
	t.Logf("%d auction schedulers, %d bidding rounds, %d capped", auctions, bidRounds, capped)
}

// TestStudiesIndependentOfWorkerCount holds that no table depends on
// how many workers simulated its cells: every quick study renders the
// same bytes at GOMAXPROCS 1 and 4.
func TestStudiesIndependentOfWorkerCount(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick sweep twice")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var text [2]strings.Builder
	for i, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		g, err := NewGrid(Quick())
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range Studies {
			tables, err := st.Run(g)
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", st.Name, procs, err)
			}
			for _, tbl := range tables {
				text[i].WriteString(tbl.Text())
			}
		}
	}
	if a, b := text[0].String(), text[1].String(); a != b {
		t.Errorf("studies differ between GOMAXPROCS 1 and 4:\n%s\n---\n%s", a, b)
	}
}

// TestGridSimulatesEachCellOnce holds the memo: Figures 10 and 12 are
// views over Figure 8's cells, so after Figure 8 they simulate nothing.
func TestGridSimulatesEachCellOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	cfg := Quick()
	simulated := 0
	cfg.observe = func(sched.Scheduler) { simulated++ }
	g, err := NewGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fig8(g); err != nil {
		t.Fatal(err)
	}
	// 3 applications × 3 unit counts × {baseline, SCH}.
	if simulated != 18 {
		t.Fatalf("Fig8 simulated %d cells, want 18", simulated)
	}
	if _, err := Fig10(g); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig12(g); err != nil {
		t.Fatal(err)
	}
	if simulated != 18 {
		t.Errorf("Fig10 and Fig12 after Fig8 simulated %d new cells, want 0", simulated-18)
	}
}

// A cell whose simulation fails fails the study that declared it.
func TestFailingCellFailsItsStudy(t *testing.T) {
	cfg := Quick()
	cfg.Cost.MemHitNanos = -1 // sim.NewCluster refuses a negative cost
	g, err := NewGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fig10(g); err == nil || !strings.Contains(err.Error(), "negative cost") {
		t.Errorf("Fig10 over cells that cannot be built: err = %v, want the cluster's negative-cost error", err)
	}
}

// counterValue reads an unlabelled counter from a Prometheus exposition.
func counterValue(t *testing.T, exposition, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("exposition has no %s:\n%s", name, exposition)
	return 0
}
