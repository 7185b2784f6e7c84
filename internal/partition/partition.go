// Package partition computes balanced vertex partitions of a property
// graph. The paper's platform stores the graph partitioned across the
// shared disk (Figure 1; the ISVision corpus ships with 45
// partitions); records of one partition are laid out contiguously, so
// runs of same-partition reads behave sequentially
// (storage.DiskConfig.PartitionLocality). This package provides the
// partitioner for graphs that do not come with labels: a BFS-grown
// seeding pass followed by bounded label-propagation refinement —
// a standard lightweight edge-locality partitioner.
package partition

import (
	"fmt"
	"sort"

	"subtrav/internal/graph"
	"subtrav/internal/xrand"
)

// Config parameterizes the partitioner.
type Config struct {
	// NumPartitions is the target partition count (>= 1).
	NumPartitions int
	// Slack bounds partition size at ⌈(1+Slack)·|V|/k⌉ (default 0.1).
	Slack float64
	// RefinePasses is the number of label-propagation sweeps after
	// seeding (default 3; 0 disables refinement).
	RefinePasses int
	// Seed drives tie-breaking.
	Seed uint64
}

func (c *Config) applyDefaults(n int) error {
	if c.NumPartitions < 1 {
		return fmt.Errorf("partition: NumPartitions = %d, want >= 1", c.NumPartitions)
	}
	if c.NumPartitions > n && n > 0 {
		return fmt.Errorf("partition: NumPartitions = %d exceeds vertex count %d", c.NumPartitions, n)
	}
	if c.Slack == 0 {
		c.Slack = 0.1
	}
	if c.Slack < 0 {
		return fmt.Errorf("partition: Slack = %g, want >= 0", c.Slack)
	}
	if c.RefinePasses < 0 {
		return fmt.Errorf("partition: RefinePasses = %d, want >= 0", c.RefinePasses)
	}
	return nil
}

// Result is a computed partition.
type Result struct {
	// Labels[v] is the partition of vertex v, in [0, NumPartitions).
	Labels []int32
	// Sizes[p] is the vertex count of partition p.
	Sizes []int
	// EdgeCut is the number of logical edges whose endpoints live in
	// different partitions.
	EdgeCut int
	// CutFraction is EdgeCut / |E| (0 for edgeless graphs).
	CutFraction float64
}

// Compute partitions g. The result is deterministic for a given seed.
func Compute(g *graph.Graph, cfg Config) (*Result, error) {
	n := g.NumVertices()
	if err := cfg.applyDefaults(n); err != nil {
		return nil, err
	}
	if n == 0 {
		return &Result{Labels: []int32{}, Sizes: make([]int, cfg.NumPartitions)}, nil
	}
	rng := xrand.New(cfg.Seed)
	k := cfg.NumPartitions
	capacity := int(float64(n)/float64(k)*(1+cfg.Slack)) + 1

	labels := make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	sizes := make([]int, k)

	// Seeding: k BFS frontiers grown round-robin from random seeds.
	// Growing all frontiers together keeps sizes balanced while
	// keeping each partition connected-ish.
	frontiers := make([][]graph.VertexID, k)
	order := rng.Perm(n)
	seedIdx := 0
	nextSeed := func() (graph.VertexID, bool) {
		for seedIdx < n {
			v := graph.VertexID(order[seedIdx])
			seedIdx++
			if labels[v] < 0 {
				return v, true
			}
		}
		return 0, false
	}
	for p := 0; p < k; p++ {
		if v, ok := nextSeed(); ok {
			labels[v] = int32(p)
			sizes[p]++
			frontiers[p] = append(frontiers[p], v)
		}
	}
	assigned := 0
	for _, s := range sizes {
		assigned += s
	}
	for assigned < n {
		progress := false
		for p := 0; p < k && assigned < n; p++ {
			if sizes[p] >= capacity {
				continue
			}
			// Expand one vertex of partition p's frontier.
			var v graph.VertexID
			found := false
			for len(frontiers[p]) > 0 {
				v = frontiers[p][0]
				frontiers[p] = frontiers[p][1:]
				found = true
				break
			}
			if !found {
				// Frontier exhausted (component ended): reseed.
				if s, ok := nextSeed(); ok {
					labels[s] = int32(p)
					sizes[p]++
					assigned++
					frontiers[p] = append(frontiers[p], s)
					progress = true
				}
				continue
			}
			for _, u := range g.Neighbors(v) {
				if labels[u] >= 0 || sizes[p] >= capacity {
					continue
				}
				labels[u] = int32(p)
				sizes[p]++
				assigned++
				frontiers[p] = append(frontiers[p], u)
				progress = true
			}
			// Keep v available until its neighborhood is drained.
			if sizes[p] < capacity {
				for _, u := range g.Neighbors(v) {
					if labels[u] < 0 {
						frontiers[p] = append(frontiers[p], v)
						break
					}
				}
			}
			progress = true
		}
		if !progress {
			// All frontiers saturated: place leftovers on the
			// smallest partitions.
			for vi := 0; vi < n && assigned < n; vi++ {
				if labels[vi] >= 0 {
					continue
				}
				best := 0
				for p := 1; p < k; p++ {
					if sizes[p] < sizes[best] {
						best = p
					}
				}
				labels[vi] = int32(best)
				sizes[best]++
				assigned++
			}
		}
	}

	// Refinement: label propagation under the capacity constraint —
	// move a vertex to the neighbor-majority partition when it
	// reduces cut and fits.
	for pass := 0; pass < cfg.RefinePasses; pass++ {
		moved := 0
		for _, vi := range rng.Perm(n) {
			v := graph.VertexID(vi)
			cur := labels[v]
			counts := map[int32]int{}
			for _, u := range g.Neighbors(v) {
				counts[labels[u]]++
			}
			best, bestCount := cur, counts[cur]
			// Deterministic iteration: sorted labels.
			cands := make([]int32, 0, len(counts))
			for l := range counts {
				cands = append(cands, l)
			}
			sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
			for _, l := range cands {
				if l == cur {
					continue
				}
				if counts[l] > bestCount && sizes[l] < capacity {
					best, bestCount = l, counts[l]
				}
			}
			if best != cur {
				labels[v] = best
				sizes[cur]--
				sizes[best]++
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}

	res := &Result{Labels: labels, Sizes: sizes}
	res.EdgeCut = edgeCut(g, labels)
	if e := g.NumEdges(); e > 0 {
		res.CutFraction = float64(res.EdgeCut) / float64(e)
	}
	return res, nil
}

// edgeCut counts logical edges crossing partitions.
func edgeCut(g *graph.Graph, labels []int32) int {
	cut := 0
	seen := make([]bool, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		lo, hi := g.EdgeSlots(graph.VertexID(v))
		for s := lo; s < hi; s++ {
			e := g.LogicalEdge(s)
			if seen[e] {
				continue
			}
			seen[e] = true
			if labels[v] != labels[g.TargetAt(s)] {
				cut++
			}
		}
	}
	return cut
}

// Apply returns a copy of g rebuilt with the computed labels attached
// (graphs are immutable; rebuilding is the supported path).
func Apply(g *graph.Graph, labels []int32) *graph.Graph {
	b := graph.NewBuilder(g.Kind(), g.NumVertices())
	seen := make([]bool, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		lo, hi := g.EdgeSlots(graph.VertexID(v))
		for s := lo; s < hi; s++ {
			e := g.LogicalEdge(s)
			if seen[e] {
				continue
			}
			seen[e] = true
			w := float32(1)
			if g.HasWeights() {
				w = g.Weight(e)
			}
			b.AddEdgeFull(graph.VertexID(v), g.TargetAt(s), w, g.EdgeProps(e).Map())
		}
		if p := g.VertexProps(graph.VertexID(v)); p.Len() > 0 {
			b.SetVertexProps(graph.VertexID(v), p.Map())
		}
	}
	b.SetPartition(labels)
	return b.Build()
}
