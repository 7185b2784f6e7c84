package graphgen

import (
	"math"
	"testing"

	"subtrav/internal/graph"
)

func TestPowerLawBasic(t *testing.T) {
	g, err := PowerLaw(PowerLawConfig{
		NumVertices: 2000, NumEdges: 10000, Exponent: 2.2,
		Kind: graph.Undirected, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2000 {
		t.Errorf("V = %d, want 2000", g.NumVertices())
	}
	// Duplicate rejection may shave a few edges, but should come close.
	if g.NumEdges() < 9000 || g.NumEdges() > 10000 {
		t.Errorf("E = %d, want ~10000", g.NumEdges())
	}
}

func TestPowerLawDeterministic(t *testing.T) {
	cfg := PowerLawConfig{NumVertices: 500, NumEdges: 2000, Exponent: 2.3, Kind: graph.Undirected, Seed: 7}
	g1, err := PowerLaw(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := PowerLaw(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", g1.NumEdges(), g2.NumEdges())
	}
	for v := 0; v < g1.NumVertices(); v++ {
		if g1.Degree(graph.VertexID(v)) != g2.Degree(graph.VertexID(v)) {
			t.Fatalf("degree(%d) differs", v)
		}
	}
}

// The central topological claim of Figure 11: the power-law graph is
// strongly skewed, the random graph is approximately even.
func TestPowerLawIsMoreSkewedThanRandom(t *testing.T) {
	const n, m = 5000, 25000
	pl, err := PowerLaw(PowerLawConfig{NumVertices: n, NumEdges: m, Exponent: 2.1, Kind: graph.Undirected, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	er, err := Random(RandomConfig{NumVertices: n, NumEdges: m, Kind: graph.Undirected, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	plStats := graph.ComputeStats(pl)
	erStats := graph.ComputeStats(er)
	if plStats.Gini <= erStats.Gini {
		t.Errorf("power-law gini %g should exceed random gini %g", plStats.Gini, erStats.Gini)
	}
	if plStats.MaxDegree <= 3*erStats.MaxDegree {
		t.Errorf("power-law max degree %d should dwarf random max degree %d", plStats.MaxDegree, erStats.MaxDegree)
	}
}

func TestPowerLawMeta(t *testing.T) {
	g, err := PowerLaw(PowerLawConfig{
		NumVertices: 100, NumEdges: 300, Exponent: 2.5,
		Kind: graph.Undirected, Seed: 9, VertexMeta: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := g.VertexProps(0)
	if uid, ok := p.Get("uid"); !ok || uid.Kind() != graph.KindInt || uid.Int64() != 0 {
		t.Fatalf("vertex props missing: %v", p)
	}
	// Twitter-like records should be small metadata (order 100s of bytes).
	if b := g.VertexBytes(0); b < 64 || b > 2048 {
		t.Errorf("vertex bytes = %d, want small metadata", b)
	}
	lo, _ := g.EdgeSlots(0)
	e := g.LogicalEdge(lo)
	if ep := g.EdgeProps(e); ep.Len() == 0 {
		t.Error("edge props missing")
	} else if _, ok := ep.Get("retweet_ts"); !ok {
		t.Error("retweet_ts missing from edge props")
	}
}

func TestPowerLawValidate(t *testing.T) {
	bad := []PowerLawConfig{
		{NumVertices: 0, NumEdges: 1, Exponent: 2.5},
		{NumVertices: 10, NumEdges: -1, Exponent: 2.5},
		{NumVertices: 10, NumEdges: 1, Exponent: 2.0},
	}
	for i, cfg := range bad {
		if _, err := PowerLaw(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRandomExactEdges(t *testing.T) {
	g, err := Random(RandomConfig{NumVertices: 1000, NumEdges: 5000, Kind: graph.Undirected, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 5000 {
		t.Errorf("E = %d, want exactly 5000", g.NumEdges())
	}
	// Simple graph: no self-loops.
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			if int(u) == v {
				t.Fatalf("self-loop at %d", v)
			}
		}
	}
}

func TestRandomRejectsOverfull(t *testing.T) {
	if _, err := Random(RandomConfig{NumVertices: 3, NumEdges: 4, Kind: graph.Undirected}); err == nil {
		t.Error("expected error: 4 edges do not fit in K3")
	}
	if _, err := Random(RandomConfig{NumVertices: 3, NumEdges: 6, Kind: graph.Directed}); err != nil {
		t.Errorf("directed K3 has 6 slots, got error %v", err)
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g, err := BarabasiAlbert(BAConfig{NumVertices: 3000, EdgesPerVertex: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	st := graph.ComputeStats(g)
	if st.MinDegree < 1 {
		t.Errorf("BA min degree = %d, want >= 1", st.MinDegree)
	}
	// Preferential attachment must produce hubs.
	if st.MaxDegree < 10*int(st.MeanDegree) {
		t.Errorf("BA max degree %d vs mean %g: no hubs formed", st.MaxDegree, st.MeanDegree)
	}
	if _, err := BarabasiAlbert(BAConfig{NumVertices: 0, EdgesPerVertex: 1}); err == nil {
		t.Error("expected error for zero vertices")
	}
	if _, err := BarabasiAlbert(BAConfig{NumVertices: 10, EdgesPerVertex: 0}); err == nil {
		t.Error("expected error for zero edges per vertex")
	}
}

func smallCorpusConfig(seed uint64) ImageCorpusConfig {
	return ImageCorpusConfig{
		NumPersons:         20,
		ImagesPerPersonMin: 5,
		ImagesPerPersonMax: 10,
		DescriptorDim:      16,
		IntraNoise:         0.2,
		KNN:                5,
		CrossCandidates:    10,
		NumPartitions:      4,
		NumQueries:         30,
		PhotoBytesMin:      10_000,
		PhotoBytesMax:      50_000,
		Seed:               seed,
	}
}

func TestImageCorpusStructure(t *testing.T) {
	c, err := Images(smallCorpusConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	g := c.Graph
	n := g.NumVertices()
	if n < 20*5 || n > 20*10 {
		t.Errorf("corpus size %d outside [100,200]", n)
	}
	if len(c.Person) != n {
		t.Fatalf("Person labels %d != vertices %d", len(c.Person), n)
	}
	if g.NumPartitions() > 4+1 || g.NumPartitions() < 1 {
		t.Errorf("partitions = %d, want ~4", g.NumPartitions())
	}
	if !g.HasWeights() {
		t.Error("similarity graph must be weighted")
	}
	// Photos dominate record sizes.
	if b := g.VertexBytes(0); b < 10_000 {
		t.Errorf("photo payload = %d bytes, want >= 10000", b)
	}
	if len(c.Queries) != 30 {
		t.Errorf("queries = %d, want 30", len(c.Queries))
	}
	for _, q := range c.Queries {
		if !g.Valid(q.Entry) {
			t.Fatalf("query entry %d invalid", q.Entry)
		}
	}
}

// Cluster structure: most query entry points should land inside the
// query's own person cluster (tight clusters, modest noise).
func TestImageCorpusQueriesLandInCluster(t *testing.T) {
	c, err := Images(smallCorpusConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, q := range c.Queries {
		if c.Person[q.Entry] == q.Person {
			hits++
		}
	}
	frac := float64(hits) / float64(len(c.Queries))
	if frac < 0.8 {
		t.Errorf("only %.0f%% of queries map into their own cluster, want >= 80%%", 100*frac)
	}
}

// Locality structure: within-person similarity should exceed
// cross-person similarity on average.
func TestImageCorpusEdgeWeightsClustered(t *testing.T) {
	c, err := Images(smallCorpusConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	g := c.Graph
	var intraSum, interSum float64
	var intraN, interN int
	for v := 0; v < g.NumVertices(); v++ {
		lo, hi := g.EdgeSlots(graph.VertexID(v))
		for s := lo; s < hi; s++ {
			u := g.TargetAt(s)
			w := float64(g.Weight(g.LogicalEdge(s)))
			if c.Person[v] == c.Person[u] {
				intraSum += w
				intraN++
			} else {
				interSum += w
				interN++
			}
		}
	}
	if intraN == 0 {
		t.Fatal("no intra-cluster edges")
	}
	intraMean := intraSum / float64(intraN)
	if interN > 0 {
		interMean := interSum / float64(interN)
		if intraMean <= interMean {
			t.Errorf("intra-cluster weight %g should exceed inter-cluster %g", intraMean, interMean)
		}
	}
}

func TestImageCorpusPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale corpus generation in -short mode")
	}
	c, err := Images(DefaultImageCorpus(42))
	if err != nil {
		t.Fatal(err)
	}
	n := c.Graph.NumVertices()
	// Paper: 5,978 images; generator targets the same scale.
	if n < 4500 || n > 7500 {
		t.Errorf("corpus vertices = %d, want ≈5978", n)
	}
	// Paper: 89,206 edges.
	if e := c.Graph.NumEdges(); e < 40_000 || e > 140_000 {
		t.Errorf("corpus edges = %d, want ≈89k", e)
	}
	if len(c.Queries) != 1024 {
		t.Errorf("queries = %d, want 1024", len(c.Queries))
	}
}

func TestImagesValidate(t *testing.T) {
	cfg := smallCorpusConfig(1)
	cfg.KNN = 0
	if _, err := Images(cfg); err == nil {
		t.Error("expected error for KNN=0")
	}
	cfg = smallCorpusConfig(1)
	cfg.NumPartitions = 100 // > persons
	if _, err := Images(cfg); err == nil {
		t.Error("expected error for partitions > persons")
	}
}

func TestPurchases(t *testing.T) {
	pg, err := Purchases(PurchaseConfig{
		NumCustomers: 500, NumProducts: 100,
		PurchasesPerCustomerMean: 5, PopularityExponent: 2.5, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := pg.Graph
	if g.NumVertices() != 600 {
		t.Fatalf("V = %d, want 600", g.NumVertices())
	}
	// Bipartite: customer neighbors are all products and vice versa.
	for c := 0; c < 500; c++ {
		for _, u := range g.Neighbors(pg.CustomerVertex(c)) {
			if !pg.IsProduct(u) {
				t.Fatalf("customer %d linked to non-product %d", c, u)
			}
		}
	}
	// Mean basket size should be near the configured mean.
	mean := 2 * float64(g.NumEdges()) / 600 * 600 / 500 / 2
	_ = mean
	total := 0
	for c := 0; c < 500; c++ {
		total += g.Degree(pg.CustomerVertex(c))
	}
	got := float64(total) / 500
	if math.Abs(got-5) > 1 {
		t.Errorf("mean basket = %g, want ~5", got)
	}
	// Popularity skew: the most popular product should far exceed the mean.
	maxDeg := 0
	for p := 0; p < 100; p++ {
		if d := g.Degree(pg.ProductVertex(p)); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 3*total/100 {
		t.Errorf("max product degree %d shows no popularity skew (mean %d)", maxDeg, total/100)
	}
}

func TestPurchasesValidate(t *testing.T) {
	bad := []PurchaseConfig{
		{NumCustomers: 0, NumProducts: 1, PurchasesPerCustomerMean: 1, PopularityExponent: 2.5},
		{NumCustomers: 1, NumProducts: 0, PurchasesPerCustomerMean: 1, PopularityExponent: 2.5},
		{NumCustomers: 1, NumProducts: 1, PurchasesPerCustomerMean: 0, PopularityExponent: 2.5},
		{NumCustomers: 1, NumProducts: 1, PurchasesPerCustomerMean: 1, PopularityExponent: 1.5},
	}
	for i, cfg := range bad {
		if _, err := Purchases(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestEstimateExponent(t *testing.T) {
	// The MLE recovers the requested exponent roughly (the structural
	// cutoff clips only the few largest hubs of the tail).
	g, err := PowerLaw(PowerLawConfig{
		NumVertices: 20000, NumEdges: 100000, Exponent: 2.3,
		Kind: graph.Undirected, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	gamma, err := EstimateExponent(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	if gamma < 1.7 || gamma > 3.2 {
		t.Errorf("estimated exponent %.2f for generated γ=2.3", gamma)
	}
	// The Erdős–Rényi control has no power-law tail: its estimate is
	// far larger (thin exponential tail).
	er, err := Random(RandomConfig{NumVertices: 20000, NumEdges: 100000, Kind: graph.Undirected, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	erGamma, err := EstimateExponent(er, 10)
	if err != nil {
		t.Fatal(err)
	}
	if erGamma <= gamma {
		t.Errorf("ER estimate %.2f should exceed power-law estimate %.2f", erGamma, gamma)
	}
	if _, err := EstimateExponent(g, 0); err == nil {
		t.Error("dmin=0 accepted")
	}
	tiny := graph.NewBuilder(graph.Undirected, 3).Build()
	if _, err := EstimateExponent(tiny, 1); err == nil {
		t.Error("too-small sample accepted")
	}
}
