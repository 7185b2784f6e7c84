package traverse

import (
	"sort"

	"subtrav/internal/graph"
)

// CollabFilter implements the naive collaborative filtering of
// Section II, example 2: starting from product v, gather its buyers
// U = Γ(v), then every other product v' bought by those buyers, and
// recommend the v' whose similarity
//
//	s_{v,v'} = |Γ(v) ∩ Γ(v')| / min(|Γ(v)|, |Γ(v')|)
//
// exceeds q.SimilarityThreshold. The traversal is a two-hop BFS over
// the customer-product bipartite graph.
//
// It is the dense-scratch kernel: buyers and co-purchased
// products live in epoch-stamped maps plus insertion-ordered compact
// side lists, so hop-2 iteration — and therefore the emitted trace,
// the visit signatures, and the cache eviction order — happens in
// deterministic first-touch order, never map-range order. Pinned
// bit-for-bit against CollabFilterReference.
//
//vet:hotpath
func (ws *Workspace) CollabFilter(g *graph.Graph, q Query) (Result, *Trace) {
	ws.begin(g)
	v := q.Start
	vAcc := ws.touch(g, v)
	visited := 1

	// Hop 1: buyers of v, in adjacency (= insertion) order. accA maps
	// buyer → its trace access index; ws.orderA is the iteration list.
	buyerAcc := &ws.scratch.accA
	lo, hi := g.EdgeSlots(v)
	ws.trace.chargeScan(vAcc, int(hi-lo))
	for s := lo; s < hi; s++ {
		u := g.TargetAt(s)
		if !buyerAcc.Contains(u) {
			buyerAcc.Put(u, int32(ws.touch(g, u)))
			ws.orderA = append(ws.orderA, u)
			visited++
		}
	}
	degV := len(ws.orderA)
	if degV == 0 {
		return Result{Visited: visited}, &ws.trace
	}

	// Hop 2: co-purchased products, counting shared buyers; products
	// are recorded in first-touch order in ws.orderB.
	shared := &ws.scratch.mapB
	for _, u := range ws.orderA {
		ulo, uhi := g.EdgeSlots(u)
		uAcc, _ := buyerAcc.Get(u)
		ws.trace.chargeScan(int(uAcc), int(uhi-ulo))
		for s := ulo; s < uhi; s++ {
			p := g.TargetAt(s)
			if p == v {
				continue
			}
			if shared.Inc(p, 1) == 1 {
				ws.touch(g, p)
				ws.orderB = append(ws.orderB, p)
				visited++
			}
		}
	}

	recs := ws.recs[:0]
	for _, p := range ws.orderB {
		count, _ := shared.Get(p)
		degP := g.Degree(p)
		minDeg := degV
		if degP < minDeg {
			minDeg = degP
		}
		if minDeg == 0 {
			continue
		}
		sim := float64(count) / float64(minDeg)
		if sim > q.SimilarityThreshold {
			recs = append(recs, Recommendation{Product: p, Similarity: sim})
		}
	}
	ws.recs = recs
	ws.recSorter.s = recs
	sort.Sort(&ws.recSorter)
	if len(recs) == 0 {
		recs = nil // match the reference's nil-when-empty Result
	}
	return Result{Visited: visited, Recommendations: recs}, &ws.trace
}
