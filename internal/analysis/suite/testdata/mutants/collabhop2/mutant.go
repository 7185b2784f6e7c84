// Package collabhop2 is CollabFilter's hop 2 before PR 5: it records
// the trace while ranging the buyers map, so the trace, and every
// signature and cache eviction downstream of it, follows map order.
package collabhop2

type vertexID int32

type trace struct{ accesses []vertexID }

func (t *trace) touchVertex(v vertexID) { t.accesses = append(t.accesses, v) }

func hop2(buyers map[vertexID]bool, adj [][]vertexID, tr *trace) map[vertexID]int {
	shared := map[vertexID]int{}
	for u := range buyers {
		for _, p := range adj[u] {
			if shared[p] == 0 {
				tr.touchVertex(p)
			}
			shared[p]++
		}
	}
	return shared
}
