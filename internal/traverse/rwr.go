package traverse

import (
	"math"
	"sort"

	"subtrav/internal/graph"
	"subtrav/internal/xrand"
)

// RandomWalk implements local random walk with restart (Section II,
// example 3): a particle starts at q.Start (the corpus image the query
// mapped to), and at each step either restarts with probability
// q.RestartProb or moves to a neighbor u with probability
// s_{v,u}/Z, where s is the edge similarity weight and Z normalizes
// over the restart target's similarity and the neighborhood (the
// paper's formulation). Visit frequencies over q.Steps steps score
// vertices; the top q.TopK (excluding the start) are returned as the
// refined matches.
//
// The walk is deterministic given q.Seed.
//
// It is the dense-scratch kernel: visit counts accumulate in
// an epoch-stamped map plus a first-visit-ordered side list, the RNG
// lives on the stack (Reseed, no per-query generator allocation), and
// the ranking is built in the pooled result buffer. On an unweighted
// graph a step costs O(1) whatever the degree (unitPick), and ranking
// n visited vertices is a top-k selection, not a sort. Pinned
// bit-for-bit against RandomWalkReference.
//
//vet:hotpath
func (ws *Workspace) RandomWalk(g *graph.Graph, q Query) (Result, *Trace) {
	ws.begin(g)
	var rng xrand.RNG
	rng.Reseed(q.Seed)

	start := q.Start
	lastAcc := ws.touch(g, start)
	counts := &ws.scratch.mapA
	cur := start
	visited := 1

	for step := 0; step < q.Steps; step++ {
		if q.RestartProb > 0 && rng.Float64() < q.RestartProb {
			cur = start
			// Restart revisits the cached start record.
			lastAcc = ws.touch(g, start)
			continue
		}
		lo, hi := g.EdgeSlots(cur)
		if hi == lo {
			cur = start // dead end: restart
			lastAcc = ws.touch(g, start)
			continue
		}
		// Normalizer Z over the incident similarities (edge weights
		// are inline in the current record: CPU only).
		ws.trace.chargeScan(lastAcc, int(hi-lo))
		var next graph.VertexID
		if !g.HasWeights() {
			// Every similarity is 1, so Z = d exactly and the
			// subtraction loop's stop has a closed form.
			d := hi - lo
			next = g.TargetAt(lo + unitPick(rng.Float64()*float64(d), d))
		} else {
			var z float64
			for s := lo; s < hi; s++ {
				z += float64(g.Weight(g.LogicalEdge(s)))
			}
			if z <= 0 {
				cur = start
				continue
			}
			pick := rng.Float64() * z
			next = g.TargetAt(hi - 1)
			for s := lo; s < hi; s++ {
				pick -= float64(g.Weight(g.LogicalEdge(s)))
				if pick <= 0 {
					next = g.TargetAt(s)
					break
				}
			}
		}
		cur = next
		if !ws.scratch.seen.Contains(cur) {
			visited++
		}
		lastAcc = ws.touch(g, cur)
		if counts.Inc(cur, 1) == 1 {
			ws.orderA = append(ws.orderA, cur)
		}
	}

	ranking := ws.ranking[:0]
	for _, v := range ws.orderA {
		if v == start {
			continue
		}
		c, _ := counts.Get(v)
		ranking = append(ranking, Ranked{Vertex: v, Score: float64(c) / float64(q.Steps)})
	}
	ws.ranking = ranking
	k := len(ranking)
	if q.TopK > 0 && k > q.TopK {
		k = q.TopK
	}
	ranking = ws.selectTop(ranking, k)
	if len(ranking) == 0 {
		ranking = nil // match the reference's nil-when-empty Result
	}
	return Result{Visited: visited, Ranking: ranking}, &ws.trace
}

// unitPick is the unweighted case of the neighbour pick: the slot
// offset in [0, d) at which subtracting d unit similarities from pick
// one by one first leaves it ≤ 0 (the last slot if it never does).
// With pick ≤ d < 2^53, each pick − j the loop forms is a multiple of
// ulp(pick) no larger than pick, so it is exact, and a pick below 1
// turns non-positive at the first step: the loop stops at
// j = max(1, ⌈pick⌉).
//
//vet:hotpath
func unitPick(pick float64, d int64) int64 {
	return min(max(int64(math.Ceil(pick)), 1), d) - 1
}

// selectTop leaves the k best entries of ranking, best first, in
// ranking[:k] and returns that prefix: the first k are sorted, and
// each later entry that beats the k-th is inserted in order, pushing
// the k-th out. rankBefore is a strict total order, so this is the
// prefix a full sort would give.
//
//vet:hotpath
func (ws *Workspace) selectTop(ranking []Ranked, k int) []Ranked {
	top := ranking[:k]
	ws.rankSorter.s = top
	sort.Sort(&ws.rankSorter)
	for _, r := range ranking[k:] {
		if !rankBefore(r, top[k-1]) {
			continue
		}
		i := k - 1
		for ; i > 0 && rankBefore(r, top[i-1]); i-- {
			top[i] = top[i-1]
		}
		top[i] = r
	}
	return top
}
