package loadgen

import (
	"math"
	"reflect"
	"testing"
)

func baseConfig() Config {
	return Config{
		Seed:          42,
		DurationNanos: 10_000_000_000, // 10s virtual
		QPS:           200,
		NumKeys:       1000,
		ZipfS:         1.1,
		TimeoutNanos:  250_000_000,
		Tenants: []TenantProfile{
			{Name: "gold", Weight: 3},
			{Name: "bronze", Weight: 1},
		},
	}
}

func TestBuildPlanDeterministic(t *testing.T) {
	t.Parallel()
	cfg := baseConfig()
	a, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("same config produced different plans")
	}
	cfg.Seed = 43
	c, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestPlanRateTracksTarget(t *testing.T) {
	t.Parallel()
	for _, shape := range []string{ShapeConstant, ShapeBurst, ShapeDiurnal} {
		cfg := baseConfig()
		cfg.Shape = shape
		plan, err := BuildPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := cfg.QPS * float64(cfg.DurationNanos) / 1e9
		got := float64(len(plan.Events))
		if math.Abs(got-want) > 0.15*want {
			t.Errorf("%s: %g events, want %g +- 15%%", shape, got, want)
		}
		last := int64(-1)
		for _, ev := range plan.Events {
			if ev.ArrivalNanos < last {
				t.Fatalf("%s: arrivals not monotone", shape)
			}
			last = ev.ArrivalNanos
			if ev.ArrivalNanos >= cfg.DurationNanos {
				t.Fatalf("%s: arrival %d beyond duration", shape, ev.ArrivalNanos)
			}
			if ev.TimeoutNanos != cfg.TimeoutNanos {
				t.Fatalf("%s: event timeout %d", shape, ev.TimeoutNanos)
			}
		}
	}
}

func TestBurstShapeConcentratesArrivals(t *testing.T) {
	t.Parallel()
	cfg := baseConfig()
	cfg.Shape = ShapeBurst
	cfg.BurstFactor = 8
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	every := plan.Config.BurstEveryNanos // defaults applied by BuildPlan
	burstLen := plan.Config.BurstLenNanos
	var inBurst int
	for _, ev := range plan.Events {
		if ev.ArrivalNanos%every < burstLen {
			inBurst++
		}
	}
	// Burst windows are 10% of the time but at 8x the base rate they
	// should carry ~47% of arrivals; uniform would carry ~10%.
	if frac := float64(inBurst) / float64(len(plan.Events)); frac < 0.3 {
		t.Errorf("burst windows carry %.0f%% of arrivals, want heavy concentration", frac*100)
	}
}

func TestZipfSkewsKeys(t *testing.T) {
	t.Parallel()
	cfg := baseConfig()
	cfg.ZipfS = 1.2
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int32]int)
	for _, ev := range plan.Events {
		counts[ev.Start]++
	}
	uniform := float64(len(plan.Events)) / float64(cfg.NumKeys)
	if float64(counts[0]) < 10*uniform {
		t.Errorf("hottest key drew %d of %d, want clear Zipf skew (uniform share %.1f)",
			counts[0], len(plan.Events), uniform)
	}
}

func TestTenantWeightsRespected(t *testing.T) {
	t.Parallel()
	plan, err := BuildPlan(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	byTenant := make(map[string]int)
	for _, ev := range plan.Events {
		byTenant[ev.Tenant]++
	}
	ratio := float64(byTenant["gold"]) / float64(byTenant["bronze"])
	if ratio < 2 || ratio > 4.5 {
		t.Errorf("gold/bronze ratio = %.2f, want ~3", ratio)
	}
	if got, want := plan.TenantNames(), []string{"bronze", "gold"}; !reflect.DeepEqual(got, want) {
		t.Errorf("TenantNames = %v, want %v", got, want)
	}
}

func TestSSSPEventsCarryTargets(t *testing.T) {
	t.Parallel()
	cfg := baseConfig()
	cfg.Mix = OpMix{SSSP: 1}
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range plan.Events {
		if ev.Op != OpSSSP {
			t.Fatalf("op = %q with SSSP-only mix", ev.Op)
		}
		if ev.Target < 0 || ev.Target >= cfg.NumKeys {
			t.Fatalf("target %d out of key space", ev.Target)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	for name, mutate := range map[string]func(*Config){
		"zero-duration":  func(c *Config) { c.DurationNanos = 0 },
		"zero-qps":       func(c *Config) { c.QPS = 0 },
		"zero-keys":      func(c *Config) { c.NumKeys = 0 },
		"bad-shape":      func(c *Config) { c.Shape = "square" },
		"bad-burst":      func(c *Config) { c.Shape = ShapeBurst; c.BurstFactor = 0.5 },
		"bad-amp":        func(c *Config) { c.Shape = ShapeDiurnal; c.DiurnalAmp = 1.5 },
		"bad-mix":        func(c *Config) { c.Mix = OpMix{BFS: -1, SSSP: 1} },
		"unnamed-tenant": func(c *Config) { c.Tenants = []TenantProfile{{Weight: 1}} },
		"zero-weights":   func(c *Config) { c.Tenants = []TenantProfile{{Name: "a", Weight: 0}} },
	} {
		cfg := baseConfig()
		mutate(&cfg)
		if _, err := BuildPlan(cfg); err == nil {
			t.Errorf("%s: BuildPlan accepted invalid config", name)
		}
	}
}

func TestBuildReportValidation(t *testing.T) {
	t.Parallel()
	plan, err := BuildPlan(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildReport(plan, []Outcome{{Index: 0, Code: CodeOK}, {Index: 0, Code: CodeOK}}); err == nil {
		t.Error("duplicate outcome accepted")
	}
	if _, err := BuildReport(plan, []Outcome{{Index: len(plan.Events), Code: CodeOK}}); err == nil {
		t.Error("out-of-range outcome accepted")
	}
	if _, err := BuildReport(plan, []Outcome{{Index: 0, Code: "weird"}}); err == nil {
		t.Error("unknown code accepted")
	}
	// A Plan's fields are exported: one built by hand may name a tenant
	// its config does not list.
	stray := &Plan{Config: plan.Config, Events: []Event{{Op: OpBFS, Tenant: "silver"}}}
	if _, err := BuildReport(stray, nil); err == nil {
		t.Error("event of an unlisted tenant accepted")
	}
	// Missing outcomes count as transport failures, keeping the
	// partition exact.
	rep, err := BuildReport(plan, []Outcome{{Index: 0, Code: CodeOK, LatencyNanos: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 1 || rep.Transport != rep.Offered-1 {
		t.Errorf("sparse outcomes: ok=%d transport=%d offered=%d", rep.OK, rep.Transport, rep.Offered)
	}
}

// TestGoodputCountsTheSpanCompletionsLandedIn: a saturated system keeps
// completing after the last arrival, and those completions must not be
// divided by the arrival window alone.
func TestGoodputCountsTheSpanCompletionsLandedIn(t *testing.T) {
	t.Parallel()
	cfg := baseConfig()
	cfg.DurationNanos = 1_000_000_000
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every completion lands after the 1 s window: the backlog drains
	// at a steady pace until t = 4 s.
	outcomes := make([]Outcome, len(plan.Events))
	for i, ev := range plan.Events {
		end := cfg.DurationNanos + int64(i+1)*3_000_000_000/int64(len(plan.Events))
		outcomes[i] = Outcome{Index: i, Code: CodeOK, LatencyNanos: end - ev.ArrivalNanos}
	}
	rep, err := BuildReport(plan, outcomes)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(len(plan.Events))
	if rep.CompletionSeconds != 4 || math.Abs(rep.GoodputQPS-n/4) > 1e-9 || rep.OfferedQPS != n {
		t.Errorf("%d completions by t = 4 s of a 1 s window: completion span %g s, goodput %g, offered %g; want 4 s, %g, %g",
			len(plan.Events), rep.CompletionSeconds, rep.GoodputQPS, rep.OfferedQPS, n/4, n)
	}
	var perTenant float64
	for _, tr := range rep.Tenants {
		if want := float64(tr.OK) / 4; math.Abs(tr.GoodputQPS-want) > 1e-9 {
			t.Errorf("tenant %s: goodput %g, want %g", tr.Tenant, tr.GoodputQPS, want)
		}
		perTenant += tr.GoodputQPS
	}
	if math.Abs(perTenant-rep.GoodputQPS) > 1e-9 {
		t.Errorf("tenant goodputs sum to %g, the report's is %g", perTenant, rep.GoodputQPS)
	}
	// Completions inside the window leave the divisor at the window; a
	// late failure or timeout does not stretch it.
	for i := range outcomes {
		outcomes[i].LatencyNanos = 1000
	}
	outcomes[0] = Outcome{Index: 0, Code: CodeTimeout, LatencyNanos: 10_000_000_000}
	rep, err = BuildReport(plan, outcomes)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CompletionSeconds != 1 || rep.GoodputQPS != n-1 {
		t.Errorf("completions inside the window: span %g s, goodput %g; want 1 s, %g", rep.CompletionSeconds, rep.GoodputQPS, n-1)
	}
}

func TestFairnessIndex(t *testing.T) {
	t.Parallel()
	even := []TenantReport{
		{Tenant: "a", Weight: 1, GoodputQPS: 50},
		{Tenant: "b", Weight: 1, GoodputQPS: 50},
	}
	if j := weightedJain(even); math.Abs(j-1) > 1e-9 {
		t.Errorf("even split Jain = %g, want 1", j)
	}
	starved := []TenantReport{
		{Tenant: "a", Weight: 1, GoodputQPS: 100},
		{Tenant: "b", Weight: 1, GoodputQPS: 0},
	}
	if j := weightedJain(starved); math.Abs(j-0.5) > 1e-9 {
		t.Errorf("starved Jain = %g, want 0.5", j)
	}
	// Weighted: gold getting 3x bronze at weight 3:1 is perfectly fair.
	weighted := []TenantReport{
		{Tenant: "gold", Weight: 3, GoodputQPS: 150},
		{Tenant: "bronze", Weight: 1, GoodputQPS: 50},
	}
	if j := weightedJain(weighted); math.Abs(j-1) > 1e-9 {
		t.Errorf("weight-proportional Jain = %g, want 1", j)
	}
	if j := weightedJain(nil); j != 1 {
		t.Errorf("empty Jain = %g, want 1", j)
	}
}
