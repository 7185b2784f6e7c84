package subtrav

import (
	"fmt"

	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
)

// Scale selects the size of the synthetic evaluation graphs. The
// paper's Twitter interaction graph has 11.3M vertices and 85.3M
// edges; ScalePaper matches it, the smaller scales preserve its
// topology (power-law exponent, density) at laptop-friendly sizes.
type Scale int

const (
	// ScaleTiny is for unit tests: 2k vertices.
	ScaleTiny Scale = iota
	// ScaleSmall is for examples and quick experiments: 20k vertices.
	ScaleSmall
	// ScaleMedium is the default experiment scale: 100k vertices.
	ScaleMedium
	// ScaleLarge stresses memory pressure: 500k vertices.
	ScaleLarge
	// ScalePaper matches the paper's dataset size (11.3M vertices,
	// 85.3M edges); generating it needs several GB of RAM.
	ScalePaper
)

func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleLarge:
		return "large"
	case ScalePaper:
		return "paper"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale returns the scale whose String is name.
func ParseScale(name string) (Scale, error) {
	for s := ScaleTiny; s <= ScalePaper; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scale %q", name)
}

// size returns (vertices, edges) preserving the paper graph's
// edge/vertex ratio of ≈7.5.
func (s Scale) size() (int, int) {
	switch s {
	case ScaleTiny:
		return 2_000, 15_000
	case ScaleSmall:
		return 20_000, 150_000
	case ScaleMedium:
		return 100_000, 750_000
	case ScaleLarge:
		return 500_000, 3_750_000
	case ScalePaper:
		return 11_316_811, 85_331_846
	default:
		return 0, 0
	}
}

// TwitterLike generates the Twitter-interaction-graph stand-in: a
// power-law (γ=2.1) undirected graph with small user metadata on
// vertices and retweet timestamps on edges (Section VI, dataset 1).
func TwitterLike(scale Scale, seed uint64) (*graph.Graph, error) {
	v, e := scale.size()
	if v == 0 {
		return nil, fmt.Errorf("subtrav: unknown scale %v", scale)
	}
	return graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: v,
		NumEdges:    e,
		Exponent:    2.1,
		Kind:        graph.Undirected,
		Seed:        seed,
		VertexMeta:  true,
	})
}

// RandomGraph generates the control topology of Figure 11: an
// Erdős–Rényi graph with the same vertex/edge counts and the same
// property schema as the TwitterLike graph of the given scale.
func RandomGraph(scale Scale, seed uint64) (*graph.Graph, error) {
	v, e := scale.size()
	if v == 0 {
		return nil, fmt.Errorf("subtrav: unknown scale %v", scale)
	}
	return graphgen.Random(graphgen.RandomConfig{
		NumVertices: v,
		NumEdges:    e,
		Kind:        graph.Undirected,
		Seed:        seed,
		VertexMeta:  true,
	})
}

// ImageCorpus generates the ISVision stand-in at the paper's scale:
// ≈5,978 photos of 336 persons, ≈89k similarity edges, 45 partitions,
// 1,024 held-out queries, with large photo payloads (Section VI,
// dataset 2).
func ImageCorpus(seed uint64) (*graphgen.ImageCorpus, error) {
	return graphgen.Images(graphgen.DefaultImageCorpus(seed))
}

// SmallImageCorpus generates a reduced corpus for examples and tests.
func SmallImageCorpus(seed uint64) (*graphgen.ImageCorpus, error) {
	cfg := graphgen.DefaultImageCorpus(seed)
	cfg.NumPersons = 48
	cfg.NumPartitions = 8
	cfg.NumQueries = 256
	cfg.PhotoBytesMin = 50_000
	cfg.PhotoBytesMax = 200_000
	return graphgen.Images(cfg)
}

// PurchaseGraph generates a customer-product bipartite graph for the
// collaborative-filtering application (Section II, example 2).
func PurchaseGraph(customers, products int, seed uint64) (*graphgen.PurchaseGraph, error) {
	return graphgen.Purchases(graphgen.PurchaseConfig{
		NumCustomers:             customers,
		NumProducts:              products,
		PurchasesPerCustomerMean: 8,
		PopularityExponent:       2.3,
		Seed:                     seed,
	})
}
