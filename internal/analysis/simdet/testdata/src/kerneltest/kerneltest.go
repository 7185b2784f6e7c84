// Package kerneltest is an analysistest fixture shaped like traversal
// kernel code — the shapes simdet must catch now that
// internal/traverse is in its scope: trace emission during map
// iteration, wall-clock seeding, and global-rand neighbor picks. Each
// // want line must be flagged; the workspace-style patterns below
// them must stay quiet.
package kerneltest

import (
	"fmt"
	"math/rand"
	"time"

	"subtrav/internal/xrand"
)

type vertexID int32

type access struct {
	vertex vertexID
	bytes  int32
}

// Flagged: seeding a walk from the wall clock makes two runs of the
// same query diverge.
func wallClockSeed() uint64 {
	return uint64(time.Now().UnixNano()) // want "wall-clock time.Now in deterministic code"
}

// Flagged: the global source is shared process-wide; concurrent
// traversals interleave draws.
func globalRandNeighbor(degree int) int {
	return rand.Intn(degree) // want "global math/rand.Intn draws from the process-wide source"
}

// Allowed: a query-seeded stack RNG is the kernel idiom.
func seededNeighbor(seed uint64, degree int) int {
	var rng xrand.RNG
	rng.Reseed(seed)
	return rng.Intn(degree)
}

// Flagged: emitting trace lines while ranging the visited map replays
// in randomized order.
func dumpVisited(visited map[vertexID]int, w interface{ Write([]byte) (int, error) }) {
	for v, count := range visited {
		fmt.Fprintf(w, "%d:%d\n", v, count) // want "call to fmt.Fprintf during map iteration"
	}
}

type trace struct{ accesses []access }

func (t *trace) touch(v vertexID) { t.accesses = append(t.accesses, access{vertex: v}) }

// Flagged: the exact CollabFilter hop-2 bug — recording the trace
// while ranging the buyers map.
func hop2(buyers map[vertexID]bool, tr *trace) {
	for u := range buyers {
		tr.touch(u) // want "call to tr.touch during map iteration"
	}
}

// Flagged: the Barabási-Albert shape — endpoints grows in map order
// and later draws sample from it.
func attach(chosen map[vertexID]struct{}, endpoints []vertexID) []vertexID {
	for t := range chosen {
		endpoints = append(endpoints, t) // want "append to endpoints during map iteration"
	}
	return endpoints
}

// Flagged: streaming accesses out of a map-keyed frontier is order-
// nondeterministic even without formatting.
func streamFrontier(frontier map[vertexID]bool, out chan vertexID) {
	for v := range frontier {
		out <- v // want "channel send during map iteration"
	}
}

// Allowed: the workspace pattern — accumulate in first-touch order
// into a compact side list, then emit from the slice.
func emitInsertionOrder(order []vertexID, counts map[vertexID]int, w interface{ Write([]byte) (int, error) }) {
	for _, v := range order {
		fmt.Fprintf(w, "%d:%d\n", v, counts[v])
	}
}

// Allowed: building a trace by appending inside a slice range is
// deterministic; only map ranges are suspect.
func buildTrace(order []vertexID, sizes map[vertexID]int32) []access {
	trace := make([]access, 0, len(order))
	for _, v := range order {
		trace = append(trace, access{vertex: v, bytes: sizes[v]})
	}
	return trace
}
