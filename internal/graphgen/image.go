package graphgen

import (
	"fmt"
	"math"
	"sort"

	"subtrav/internal/graph"
	"subtrav/internal/xrand"
)

// ImageCorpusConfig configures the synthetic stand-in for the ISVision
// face-image reservoir (Section VI, dataset 2): 5,978 photos of 336
// persons connected by SIFT similarity, clustered into 45 partitions,
// with 1,024 held-out query images. Defaults (DefaultImageCorpus)
// reproduce the original scale exactly.
type ImageCorpusConfig struct {
	// NumPersons is the number of identity clusters.
	NumPersons int
	// ImagesPerPersonMin/Max bound the cluster sizes; actual sizes are
	// uniform in [Min, Max] and the total vertex count follows.
	ImagesPerPersonMin int
	ImagesPerPersonMax int
	// DescriptorDim is the dimensionality of the synthetic SIFT-like
	// descriptor vectors.
	DescriptorDim int
	// IntraNoise is the standard deviation of within-person descriptor
	// noise relative to unit-norm cluster centers. Smaller values give
	// tighter clusters.
	IntraNoise float64
	// KNN is the number of nearest neighbors each image links to.
	KNN int
	// MinSimilarity drops candidate edges whose cosine similarity
	// falls below it — the usual thresholding when building a
	// SIFT-similarity graph. Cross-person pairs are near orthogonal,
	// so a moderate threshold keeps the graph cluster-structured.
	MinSimilarity float64
	// CrossCandidates is the number of random cross-person candidates
	// considered per image when building the kNN graph (the full
	// all-pairs scan is avoided; within-person pairs are always
	// considered).
	CrossCandidates int
	// NumPartitions is the number of graph partitions (persons are
	// grouped; the paper's corpus has 45 partitions).
	NumPartitions int
	// NumQueries is the number of held-out query images to synthesize.
	NumQueries int
	// PhotoBytesMin/Max bound the per-vertex photo payload size. The
	// paper stresses that image vertices carry "extremely large vertex
	// properties" whose disk loads dominate.
	PhotoBytesMin int
	PhotoBytesMax int
	Seed          uint64
}

// DefaultImageCorpus returns the paper-scale configuration:
// ≈5,978 images of 336 persons, ≈89k similarity edges, 45 partitions
// and 1,024 query images.
func DefaultImageCorpus(seed uint64) ImageCorpusConfig {
	return ImageCorpusConfig{
		NumPersons:         336,
		ImagesPerPersonMin: 12,
		ImagesPerPersonMax: 23, // mean 17.5 → ≈5,880 images
		DescriptorDim:      32,
		IntraNoise:         0.12,
		KNN:                15, // ≈ 89k directed similarity links
		MinSimilarity:      0.45,
		CrossCandidates:    40,
		NumPartitions:      45,
		NumQueries:         1024,
		PhotoBytesMin:      200_000,
		PhotoBytesMax:      800_000,
		Seed:               seed,
	}
}

// Validate checks the configuration.
func (c ImageCorpusConfig) Validate() error {
	switch {
	case c.NumPersons <= 0:
		return fmt.Errorf("graphgen: NumPersons = %d, want > 0", c.NumPersons)
	case c.ImagesPerPersonMin <= 0 || c.ImagesPerPersonMax < c.ImagesPerPersonMin:
		return fmt.Errorf("graphgen: images per person range [%d,%d] invalid", c.ImagesPerPersonMin, c.ImagesPerPersonMax)
	case c.DescriptorDim <= 0:
		return fmt.Errorf("graphgen: DescriptorDim = %d, want > 0", c.DescriptorDim)
	case c.KNN <= 0:
		return fmt.Errorf("graphgen: KNN = %d, want > 0", c.KNN)
	case c.NumPartitions <= 0 || c.NumPartitions > c.NumPersons:
		return fmt.Errorf("graphgen: NumPartitions = %d, want in [1,%d]", c.NumPartitions, c.NumPersons)
	case c.NumQueries < 0:
		return fmt.Errorf("graphgen: NumQueries = %d, want >= 0", c.NumQueries)
	case c.PhotoBytesMin <= 0 || c.PhotoBytesMax < c.PhotoBytesMin:
		return fmt.Errorf("graphgen: photo bytes range [%d,%d] invalid", c.PhotoBytesMin, c.PhotoBytesMax)
	}
	return nil
}

// ImageCorpus is the generated dataset: the similarity graph plus the
// held-out queries, each already mapped to its entry vertex (the
// paper's "heuristic method to map v to a vertex in the graph").
type ImageCorpus struct {
	Graph *graph.Graph
	// Person[v] is the identity cluster of image vertex v.
	Person []int32
	// Queries are the held-out query images.
	Queries []ImageQuery
}

// ImageQuery is one held-out test image.
type ImageQuery struct {
	// Person is the true identity of the query image.
	Person int32
	// Entry is the graph vertex the query maps to (nearest neighbor of
	// the query descriptor among the corpus images — the v' where the
	// local random walk with restart begins).
	Entry graph.VertexID
}

// Images generates the corpus. Edges are weighted with the cosine
// similarity of the synthetic descriptors; vertex payloads are large
// photo blobs.
func Images(cfg ImageCorpusConfig) (*ImageCorpus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)

	// Cluster centers: random unit vectors.
	centers := make([][]float64, cfg.NumPersons)
	for p := range centers {
		centers[p] = randomUnitVec(rng, cfg.DescriptorDim)
	}

	// Corpus images: center + noise, re-normalized.
	var person []int32
	var descs [][]float64
	for p := 0; p < cfg.NumPersons; p++ {
		count := cfg.ImagesPerPersonMin
		if cfg.ImagesPerPersonMax > cfg.ImagesPerPersonMin {
			count += rng.Intn(cfg.ImagesPerPersonMax - cfg.ImagesPerPersonMin + 1)
		}
		for i := 0; i < count; i++ {
			descs = append(descs, noisyVec(rng, centers[p], cfg.IntraNoise))
			person = append(person, int32(p))
		}
	}
	n := len(descs)

	// kNN candidate sets: all within-person pairs plus random
	// cross-person candidates, keeping the top-K by cosine similarity.
	personMembers := make([][]graph.VertexID, cfg.NumPersons)
	for v, p := range person {
		personMembers[p] = append(personMembers[p], graph.VertexID(v))
	}
	type scored struct {
		v   graph.VertexID
		sim float64
	}
	b := graph.NewBuilder(graph.Undirected, n)
	seen := make(map[uint64]struct{})
	for v := 0; v < n; v++ {
		cands := make([]scored, 0, cfg.KNN+cfg.CrossCandidates+32)
		consider := func(u graph.VertexID) {
			sim := dot(descs[v], descs[int(u)])
			if sim >= cfg.MinSimilarity {
				cands = append(cands, scored{u, sim})
			}
		}
		for _, u := range personMembers[person[v]] {
			if int(u) != v {
				consider(u)
			}
		}
		for i := 0; i < cfg.CrossCandidates; i++ {
			u := rng.Intn(n)
			if u != v && person[u] != person[v] {
				consider(graph.VertexID(u))
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].sim > cands[j].sim })
		k := cfg.KNN
		if k > len(cands) {
			k = len(cands)
		}
		for _, c := range cands[:k] {
			a, z := graph.VertexID(v), c.v
			if a > z {
				a, z = z, a
			}
			key := uint64(a)<<32 | uint64(uint32(z))
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			// Edge weight = squared similarity, sharpening the
			// intra/inter contrast so similarity-weighted random
			// walks stay inside the person cluster, like SIFT-based
			// RWR on real face corpora.
			w := float32(c.sim * c.sim)
			if w < 0.01 {
				w = 0.01
			}
			b.AddWeightedEdge(a, z, w)
		}
	}

	// Photo payloads: the dominant cost in the image-search workload.
	for v := 0; v < n; v++ {
		size := cfg.PhotoBytesMin
		if cfg.PhotoBytesMax > cfg.PhotoBytesMin {
			size += rng.Intn(cfg.PhotoBytesMax - cfg.PhotoBytesMin + 1)
		}
		b.SetVertexProps(graph.VertexID(v), graph.Properties{
			"photo":  graph.Blob(size),
			"person": graph.Int(int64(person[v])),
		})
	}

	// Partitions: contiguous groups of persons, sizes differing by at
	// most one, so every one of the NumPartitions labels is used.
	part := make([]int32, n)
	for v := 0; v < n; v++ {
		part[v] = int32(int(person[v]) * cfg.NumPartitions / cfg.NumPersons)
	}
	b.SetPartition(part)

	corpus := &ImageCorpus{Graph: b.Build(), Person: person}

	// Held-out queries: a fresh image of a random person, mapped to
	// its best-matching corpus vertex within that person's cluster
	// plus a random candidate pool (mimicking the paper's heuristic
	// cluster mapping).
	for q := 0; q < cfg.NumQueries; q++ {
		p := int32(rng.Intn(cfg.NumPersons))
		desc := noisyVec(rng, centers[p], cfg.IntraNoise)
		best := graph.NoVertex
		bestSim := math.Inf(-1)
		consider := func(u graph.VertexID) {
			if s := dot(desc, descs[u]); s > bestSim {
				bestSim = s
				best = u
			}
		}
		for _, u := range personMembers[p] {
			consider(u)
		}
		for i := 0; i < 8; i++ {
			consider(graph.VertexID(rng.Intn(n)))
		}
		corpus.Queries = append(corpus.Queries, ImageQuery{Person: p, Entry: best})
	}
	return corpus, nil
}

func randomUnitVec(rng *xrand.RNG, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	normalize(v)
	return v
}

func noisyVec(rng *xrand.RNG, center []float64, noise float64) []float64 {
	v := make([]float64, len(center))
	for i := range v {
		v[i] = center[i] + noise*rng.NormFloat64()
	}
	normalize(v)
	return v
}

func normalize(v []float64) {
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		v[0] = 1
		return
	}
	for i := range v {
		v[i] /= norm
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
