// Package graphgen synthesizes the evaluation datasets of the paper:
// a Twitter-like power-law interaction graph, a degree-balanced random
// graph of the same size, a clustered image-similarity corpus, and a
// customer-product purchase graph. All generators are deterministic
// given a seed (see internal/xrand).
//
// The paper's actual datasets (a GNIP Twitter crawl and the ISVision
// face reservoir) are proprietary; DESIGN.md documents why these
// synthetic equivalents exercise the same code paths.
package graphgen

import (
	"fmt"
	"math"

	"subtrav/internal/graph"
	"subtrav/internal/xrand"
)

// PowerLawConfig configures the Chung-Lu power-law generator used as
// the Twitter-interaction-graph stand-in.
type PowerLawConfig struct {
	// NumVertices is |V|. The paper's graph has 11,316,811 vertices;
	// experiments here default to a scaled-down instance.
	NumVertices int
	// NumEdges is the target |E| (realized count may be slightly lower
	// after removing self-loops and duplicates).
	NumEdges int
	// Exponent is the degree-distribution exponent γ (>2). Twitter-like
	// graphs are typically γ ≈ 2.1–2.4.
	Exponent float64
	// Kind selects directed or undirected output. The paper treats the
	// interaction graph as follower/friendship edges; we default to
	// undirected, matching its bounded-SSSP use case.
	Kind graph.Kind
	// Seed drives all randomness.
	Seed uint64
	// VertexMeta, when true, attaches Twitter-like small vertex
	// properties (id, name, gender, affiliation) and retweet-timestamp
	// edge properties so records have realistic metadata sizes.
	VertexMeta bool
}

// Validate checks the configuration.
func (c PowerLawConfig) Validate() error {
	if c.NumVertices <= 0 {
		return fmt.Errorf("graphgen: NumVertices = %d, want > 0", c.NumVertices)
	}
	if c.NumEdges < 0 {
		return fmt.Errorf("graphgen: NumEdges = %d, want >= 0", c.NumEdges)
	}
	if c.Exponent <= 2 {
		return fmt.Errorf("graphgen: Exponent = %g, want > 2", c.Exponent)
	}
	return nil
}

// PowerLaw generates a Chung-Lu random graph: vertex v receives an
// expected degree w_v ∝ (v+1)^(-1/(γ-1)) and edges are sampled with
// probability proportional to w_u·w_v, giving a power-law degree
// distribution with exponent γ. Self-loops and duplicate edges are
// rejected.
func PowerLaw(cfg PowerLawConfig) (*graph.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)
	n := cfg.NumVertices

	weights := make([]float64, n)
	power := -1.0 / (cfg.Exponent - 1)
	var weightSum float64
	for v := 0; v < n; v++ {
		weights[v] = math.Pow(float64(v+1), power)
		weightSum += weights[v]
	}
	// Structural cutoff: clamp weights so no vertex's expected degree
	// exceeds √(2·NumEdges) (expected degree of v is 2m·w_v/Σw) —
	// standard practice for scale-free generators: without it, a small-n
	// Chung-Lu instance grows a mega-hub adjacent to a large fraction of
	// the graph, destroying the neighborhood locality that real social
	// graphs (and the paper's workload) exhibit.
	if cfg.NumEdges > 0 {
		cap := math.Sqrt(2 * float64(cfg.NumEdges))
		// Clamping reduces Σw, which raises other degrees slightly;
		// two passes converge well enough for generation purposes.
		for pass := 0; pass < 2; pass++ {
			maxW := cap * weightSum / (2 * float64(cfg.NumEdges))
			weightSum = 0
			for v := 0; v < n; v++ {
				if weights[v] > maxW {
					weights[v] = maxW
				}
				weightSum += weights[v]
			}
		}
	}
	sampler := xrand.NewAlias(weights)

	b := graph.NewBuilder(cfg.Kind, n)
	seen := make(map[uint64]struct{}, cfg.NumEdges)
	attempts := 0
	maxAttempts := 20*cfg.NumEdges + 100
	for b.NumAddedEdges() < cfg.NumEdges && attempts < maxAttempts {
		attempts++
		u := graph.VertexID(sampler.Sample(rng))
		v := graph.VertexID(sampler.Sample(rng))
		if u == v {
			continue
		}
		if cfg.Kind == graph.Undirected && u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(uint32(v))
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		if cfg.VertexMeta {
			b.AddEdgeFull(u, v, 1, retweetProps(rng))
		} else {
			b.AddEdge(u, v)
		}
	}
	if cfg.VertexMeta {
		attachUserProps(b, rng)
	}
	return b.Build(), nil
}

// attachUserProps gives every vertex small Twitter-like metadata: the
// paper notes vertex/edge properties on the interaction graph are
// "small-sized meta data"; sizes land around 100–200 bytes.
func attachUserProps(b *graph.Builder, rng *xrand.RNG) {
	n := b.NumVertices()
	for v := 0; v < n; v++ {
		nameLen := 8 + rng.Intn(24)
		affLen := 8 + rng.Intn(56)
		b.SetVertexProps(graph.VertexID(v), graph.Properties{
			"uid":         graph.Int(int64(v)),
			"name":        graph.Blob(nameLen),
			"gender":      graph.Bool(rng.Intn(2) == 0),
			"affiliation": graph.Blob(affLen),
		})
	}
}

// retweetProps builds the edge property map of an interaction edge:
// the retweet timestamp from the paper's description.
func retweetProps(rng *xrand.RNG) graph.Properties {
	return graph.Properties{"retweet_ts": graph.Int(rng.Int63() % (1 << 40))}
}

// EstimateExponent fits the degree-distribution exponent γ by the
// standard discrete maximum-likelihood estimator
//
//	γ̂ = 1 + n · ( Σ_{d ≥ dmin} ln(d / (dmin - ½)) )⁻¹
//
// over vertices of degree ≥ dmin (Clauset-Shalizi-Newman). Generators
// and tests use it to confirm a synthesized graph actually carries the
// requested power-law tail. Returns an error when fewer than 10
// vertices qualify.
func EstimateExponent(g *graph.Graph, dmin int) (float64, error) {
	if dmin < 1 {
		return 0, fmt.Errorf("graphgen: dmin = %d, want >= 1", dmin)
	}
	var sum float64
	count := 0
	for v := 0; v < g.NumVertices(); v++ {
		d := g.Degree(graph.VertexID(v))
		if d >= dmin {
			sum += math.Log(float64(d) / (float64(dmin) - 0.5))
			count++
		}
	}
	if count < 10 {
		return 0, fmt.Errorf("graphgen: only %d vertices with degree >= %d", count, dmin)
	}
	if sum == 0 {
		return 0, fmt.Errorf("graphgen: degenerate degree distribution")
	}
	return 1 + float64(count)/sum, nil
}
