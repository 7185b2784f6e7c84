package partition

import (
	"testing"
	"testing/quick"

	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
)

func grid(t *testing.T, side int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(graph.Undirected, side*side)
	at := func(r, c int) graph.VertexID { return graph.VertexID(r*side + c) }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				b.AddEdge(at(r, c), at(r, c+1))
			}
			if r+1 < side {
				b.AddEdge(at(r, c), at(r+1, c))
			}
		}
	}
	return b.Build()
}

func validate(t *testing.T, g *graph.Graph, cfg Config, res *Result) {
	t.Helper()
	n := g.NumVertices()
	if len(res.Labels) != n {
		t.Fatalf("labels = %d, want %d", len(res.Labels), n)
	}
	counts := make([]int, cfg.NumPartitions)
	for v, l := range res.Labels {
		if l < 0 || int(l) >= cfg.NumPartitions {
			t.Fatalf("vertex %d has label %d", v, l)
		}
		counts[l]++
	}
	for p, c := range counts {
		if c != res.Sizes[p] {
			t.Fatalf("partition %d size %d, reported %d", p, c, res.Sizes[p])
		}
	}
	slack := cfg.Slack
	if slack == 0 {
		slack = 0.1
	}
	cap := int(float64(n)/float64(cfg.NumPartitions)*(1+slack)) + 1
	for p, c := range counts {
		if c > cap {
			t.Errorf("partition %d overfull: %d > cap %d", p, c, cap)
		}
	}
}

func TestGridPartition(t *testing.T) {
	g := grid(t, 20) // 400 vertices, 760 edges
	cfg := Config{NumPartitions: 4, Seed: 1}
	res, err := Compute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, g, cfg, res)
	// A sane 4-way grid partition cuts far fewer edges than random
	// labeling would (~75% cut).
	if res.CutFraction > 0.30 {
		t.Errorf("cut fraction %.2f, want locality-preserving (< 0.30)", res.CutFraction)
	}
}

func TestPowerLawPartition(t *testing.T) {
	g, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: 3000, NumEdges: 12000, Exponent: 2.3,
		Kind: graph.Undirected, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{NumPartitions: 8, Seed: 3}
	res, err := Compute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, g, cfg, res)
	if res.EdgeCut <= 0 || res.EdgeCut > g.NumEdges() {
		t.Errorf("edge cut %d of %d", res.EdgeCut, g.NumEdges())
	}
}

func TestRefinementReducesCut(t *testing.T) {
	g := grid(t, 16)
	raw, err := Compute(g, Config{NumPartitions: 4, Seed: 5, RefinePasses: 0})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Compute(g, Config{NumPartitions: 4, Seed: 5, RefinePasses: 5})
	if err != nil {
		t.Fatal(err)
	}
	if refined.EdgeCut > raw.EdgeCut {
		t.Errorf("refinement increased cut: %d -> %d", raw.EdgeCut, refined.EdgeCut)
	}
}

func TestDeterministic(t *testing.T) {
	g := grid(t, 10)
	a, err := Compute(g, Config{NumPartitions: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compute(g, Config{NumPartitions: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Labels {
		if a.Labels[v] != b.Labels[v] {
			t.Fatal("same seed produced different partitions")
		}
	}
}

func TestSinglePartition(t *testing.T) {
	g := grid(t, 5)
	res, err := Compute(g, Config{NumPartitions: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeCut != 0 {
		t.Errorf("single partition has cut %d", res.EdgeCut)
	}
}

func TestDisconnectedGraph(t *testing.T) {
	// Two components of 10 vertices each, plus isolated vertices.
	b := graph.NewBuilder(graph.Undirected, 25)
	for i := 0; i < 9; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
		b.AddEdge(graph.VertexID(10+i), graph.VertexID(11+i))
	}
	g := b.Build()
	cfg := Config{NumPartitions: 4, Seed: 9}
	res, err := Compute(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, g, cfg, res)
}

func TestValidation(t *testing.T) {
	g := grid(t, 3)
	if _, err := Compute(g, Config{NumPartitions: 0}); err == nil {
		t.Error("zero partitions accepted")
	}
	if _, err := Compute(g, Config{NumPartitions: 100}); err == nil {
		t.Error("more partitions than vertices accepted")
	}
	if _, err := Compute(g, Config{NumPartitions: 2, Slack: -1}); err == nil {
		t.Error("negative slack accepted")
	}
	if _, err := Compute(g, Config{NumPartitions: 2, RefinePasses: -1}); err == nil {
		t.Error("negative refine passes accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(graph.Undirected, 0).Build()
	res, err := Compute(g, Config{NumPartitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != 0 {
		t.Errorf("labels = %v", res.Labels)
	}
}

func TestApplyAttachesLabels(t *testing.T) {
	g, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: 500, NumEdges: 2000, Exponent: 2.3,
		Kind: graph.Undirected, Seed: 11, VertexMeta: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compute(g, Config{NumPartitions: 5, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	pg := Apply(g, res.Labels)
	if pg.NumPartitions() != 5 {
		t.Fatalf("partitions = %d", pg.NumPartitions())
	}
	if pg.NumVertices() != g.NumVertices() || pg.NumEdges() != g.NumEdges() {
		t.Fatalf("shape changed: %d/%d vs %d/%d", pg.NumVertices(), pg.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if pg.Partition(graph.VertexID(v)) != res.Labels[v] {
			t.Fatalf("vertex %d label mismatch", v)
		}
		if g.Degree(graph.VertexID(v)) != pg.Degree(graph.VertexID(v)) {
			t.Fatalf("vertex %d degree changed", v)
		}
	}
	// Properties survive.
	if pg.VertexProps(0).Len() == 0 {
		t.Error("vertex props lost in Apply")
	}
}

// Property: every partitioning is a complete assignment within
// capacity for arbitrary small random graphs.
func TestPartitionInvariantsQuick(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw, kRaw uint8) bool {
		n := int(nRaw)%60 + 2
		m := int(mRaw) % 150
		k := int(kRaw)%4 + 1
		if k > n {
			k = n
		}
		g, err := graphgen.Random(graphgen.RandomConfig{
			NumVertices: n, NumEdges: min(m, n*(n-1)/2), Kind: graph.Undirected, Seed: seed,
		})
		if err != nil {
			return false
		}
		res, err := Compute(g, Config{NumPartitions: k, Seed: seed})
		if err != nil {
			return false
		}
		total := 0
		for _, s := range res.Sizes {
			total += s
		}
		if total != n {
			return false
		}
		for _, l := range res.Labels {
			if l < 0 || int(l) >= k {
				return false
			}
		}
		return res.EdgeCut >= 0 && res.EdgeCut <= g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
