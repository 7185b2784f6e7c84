package subtrav

import (
	"slices"
	"testing"

	"subtrav/internal/workload"
)

func TestPoliciesListed(t *testing.T) {
	want := []Policy{PolicyAuction, PolicyBaseline, PolicyAffinityOnly, PolicyLeastLoaded, PolicyRoundRobin}
	if !slices.Equal(Policies(), want) {
		t.Fatalf("policies = %v, want %v", Policies(), want)
	}
}

func TestScaleStrings(t *testing.T) {
	for s, want := range map[Scale]string{
		ScaleTiny: "tiny", ScaleSmall: "small", ScaleMedium: "medium",
		ScaleLarge: "large", ScalePaper: "paper",
	} {
		if s.String() != want {
			t.Errorf("%v.String() = %q", s, s.String())
		}
	}
}

func TestParseScale(t *testing.T) {
	for s := ScaleTiny; s <= ScalePaper; s++ {
		if got, err := ParseScale(s.String()); got != s || err != nil {
			t.Errorf("ParseScale(%q) = %v, %v", s, got, err)
		}
	}
	for _, name := range []string{"", "Tiny", "huge", "Scale(5)"} {
		if _, err := ParseScale(name); err == nil {
			t.Errorf("ParseScale(%q) accepted", name)
		}
	}
}

func TestTwitterLikeTiny(t *testing.T) {
	g, err := TwitterLike(ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2000 {
		t.Errorf("V = %d", g.NumVertices())
	}
	if g.VertexProps(0).Len() == 0 {
		t.Error("TwitterLike should carry vertex metadata")
	}
}

func TestRandomGraphMatchesScale(t *testing.T) {
	g, err := RandomGraph(ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := TwitterLike(ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != tw.NumVertices() {
		t.Errorf("random %d vs twitter %d vertices", g.NumVertices(), tw.NumVertices())
	}
}

func TestUnknownScale(t *testing.T) {
	if _, err := TwitterLike(Scale(99), 1); err == nil {
		t.Error("unknown scale accepted")
	}
	if _, err := RandomGraph(Scale(99), 1); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestSystemEndToEnd(t *testing.T) {
	g, err := TwitterLike(ScaleTiny, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(g, Options{Units: 4, MemoryPerUnit: 512 << 10, SchedulerSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := workload.BFS(g, workload.StreamConfig{
		NumQueries: 150, Seed: 3, Locality: workload.DefaultLocality(),
	}, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range Policies() {
		res, err := sys.Run(policy, tasks)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if res.Completed != 150 {
			t.Errorf("%s completed %d of 150", policy, res.Completed)
		}
		if res.ThroughputPerSec <= 0 {
			t.Errorf("%s throughput %g", policy, res.ThroughputPerSec)
		}
	}
}

func TestSystemRunIsRepeatable(t *testing.T) {
	g, err := TwitterLike(ScaleTiny, 4)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(g, Options{Units: 4, MemoryPerUnit: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := workload.BFS(g, workload.StreamConfig{
		NumQueries: 100, Seed: 5, Locality: workload.DefaultLocality(),
	}, 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Run(PolicyAuction, tasks)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Run(PolicyAuction, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.CacheHits != b.CacheHits {
		t.Errorf("Run is not repeatable after Reset: %v vs %v", a.Makespan, b.Makespan)
	}
}

func TestSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil, Options{Units: 1}); err == nil {
		t.Error("nil graph accepted")
	}
	g, err := TwitterLike(ScaleTiny, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSystem(g, Options{Units: 0}); err == nil {
		t.Error("zero units accepted")
	}
	sys, err := NewSystem(g, Options{Units: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(Policy("nope"), nil); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestSmallImageCorpus(t *testing.T) {
	c, err := SmallImageCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	if c.Graph.NumVertices() == 0 || len(c.Queries) != 256 {
		t.Errorf("corpus: V=%d queries=%d", c.Graph.NumVertices(), len(c.Queries))
	}
}

func TestPurchaseGraphHelper(t *testing.T) {
	pg, err := PurchaseGraph(500, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pg.NumCustomers != 500 || pg.NumProducts != 100 {
		t.Errorf("shape: %d/%d", pg.NumCustomers, pg.NumProducts)
	}
}

func TestOptionsPassthrough(t *testing.T) {
	g, err := TwitterLike(ScaleTiny, 9)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := workload.BFS(g, workload.StreamConfig{
		NumQueries: 80, Seed: 2, Locality: workload.DefaultLocality(),
	}, 2, 100)
	if err != nil {
		t.Fatal(err)
	}

	// SpeedFactors: a degraded cluster is slower.
	fast, err := NewSystem(g, Options{Units: 4, MemoryPerUnit: 512 << 10})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewSystem(g, Options{
		Units: 4, MemoryPerUnit: 512 << 10,
		SpeedFactors: []float64{16, 16, 16, 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	fres, err := fast.Run(PolicyRoundRobin, tasks)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := slow.Run(PolicyRoundRobin, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if sres.ThroughputPerSec >= fres.ThroughputPerSec {
		t.Errorf("16x-slower cluster not slower: %.1f vs %.1f", sres.ThroughputPerSec, fres.ThroughputPerSec)
	}

	// ColdScore and SignatureCap: accepted and still complete work.
	sys, err := NewSystem(g, Options{
		Units: 4, MemoryPerUnit: 512 << 10, ColdScore: 0.1, SignatureCap: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(PolicyAuction, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 80 {
		t.Errorf("completed %d of 80", res.Completed)
	}
}

func TestSystemAccessors(t *testing.T) {
	g, err := TwitterLike(ScaleTiny, 3)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(g, Options{Units: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Graph() != g {
		t.Error("Graph() accessor wrong")
	}
	if sys.Units() != 3 {
		t.Errorf("Units() = %d", sys.Units())
	}
	if sys.Cluster() == nil {
		t.Error("Cluster() accessor nil")
	}
}

func TestScaleSizes(t *testing.T) {
	// Every scale preserves the paper's edge/vertex ratio ≈7.5.
	for _, sc := range []Scale{ScaleTiny, ScaleSmall, ScaleMedium, ScaleLarge, ScalePaper} {
		v, e := sc.size()
		if v <= 0 || e <= 0 {
			t.Fatalf("%v: %d/%d", sc, v, e)
		}
		ratio := float64(e) / float64(v)
		if ratio < 6 || ratio > 9 {
			t.Errorf("%v edge/vertex ratio %.1f outside [6,9]", sc, ratio)
		}
	}
	if v, e := Scale(99).size(); v != 0 || e != 0 {
		t.Error("unknown scale should size to zero")
	}
}
