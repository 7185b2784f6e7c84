// Package traverse implements the local subgraph traversal engines of
// Section II: bounded-depth predicate BFS, bounded bidirectional
// single-source shortest path, naive collaborative filtering, and
// random walk with restart (image re-ranking).
//
// Every engine returns, besides its semantic result, an ordered
// *access trace*: the sequence of vertex/edge records it touched, with
// their payload sizes. The set of records a traversal touches depends
// only on the graph and the query — never on timing — so the
// discrete-event simulator can replay the trace against a unit's cache
// and the shared disk to obtain the traversal's cost, while the live
// runtime charges the same accesses as it goes.
//
// The engines come in two forms. The Workspace kernels (Workspace.BFS
// et al., dispatched by ExecuteIn) run against reusable epoch-stamped
// dense scratch — O(1) reset, zero steady-state allocations — and are
// what the executors drive; BFS and SSSP are waves of one engine
// (engine.go) that a Batch advances for several queries in lockstep.
// The *Reference kernels (reference.go) are the original map-based
// implementations, retained as the executable specification:
// differential tests pin the two bit-for-bit on every Result and
// Trace. The package-level one-shot functions (BFS, Execute, ...)
// allocate a private Workspace per call.
package traverse

import (
	"fmt"
	"math"

	"subtrav/internal/graph"
)

// Op selects a traversal engine.
type Op uint8

const (
	// OpBFS is a bounded-depth breadth-first search with optional
	// vertex/edge predicates.
	OpBFS Op = iota
	// OpSSSP is the bounded-length single-source shortest path solved
	// by two meeting BFS frontiers (Section II, example 1).
	OpSSSP
	// OpCollab is naive collaborative filtering over a
	// customer-product graph (Section II, example 2).
	OpCollab
	// OpRWR is local random walk with restart for multimedia search
	// refinement (Section II, example 3).
	OpRWR
)

func (o Op) String() string {
	switch o {
	case OpBFS:
		return "bfs"
	case OpSSSP:
		return "sssp"
	case OpCollab:
		return "collab"
	case OpRWR:
		return "rwr"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Query is one subgraph traversal task: a starting vertex, a depth
// bound h, and predicates θ to match during the traversal (Section
// V-C), plus per-engine parameters.
type Query struct {
	Op    Op
	Start graph.VertexID

	// Depth is the traversal bound h (BFS) or the maximum path length
	// δ (SSSP).
	Depth int

	// MaxVisits optionally caps the number of expanded vertices
	// (0 = unbounded); real services bound hub explosions this way.
	MaxVisits int

	// VertexPred and EdgePred are the user-defined constraints θ; nil
	// matches everything.
	VertexPred graph.Predicate
	EdgePred   graph.Predicate

	// Target is the second endpoint for OpSSSP.
	Target graph.VertexID

	// SimilarityThreshold is the η of the collaborative-filtering
	// rule s_{v,v'} > η.
	SimilarityThreshold float64

	// Steps, RestartProb, TopK and Seed parameterize OpRWR.
	Steps       int
	RestartProb float64
	TopK        int
	Seed        uint64
}

// Validate checks query parameters against a graph.
func (q Query) Validate(g *graph.Graph) error {
	if !g.Valid(q.Start) {
		return fmt.Errorf("traverse: start vertex %d invalid", q.Start)
	}
	switch q.Op {
	case OpBFS:
		if q.Depth < 0 {
			return fmt.Errorf("traverse: BFS depth %d, want >= 0", q.Depth)
		}
	case OpSSSP:
		if !g.Valid(q.Target) {
			return fmt.Errorf("traverse: SSSP target %d invalid", q.Target)
		}
		if q.Depth <= 0 {
			return fmt.Errorf("traverse: SSSP length bound %d, want > 0", q.Depth)
		}
	case OpCollab:
		if q.SimilarityThreshold < 0 || q.SimilarityThreshold > 1 {
			return fmt.Errorf("traverse: similarity threshold %g, want [0,1]", q.SimilarityThreshold)
		}
	case OpRWR:
		if q.Steps <= 0 {
			return fmt.Errorf("traverse: RWR steps %d, want > 0", q.Steps)
		}
		if q.RestartProb < 0 || q.RestartProb >= 1 {
			return fmt.Errorf("traverse: restart probability %g, want [0,1)", q.RestartProb)
		}
	default:
		return fmt.Errorf("traverse: unknown op %d", q.Op)
	}
	return nil
}

// Access is one vertex-record touch. A record is the vertex header,
// its properties, and its adjacency list with inline edge properties
// (see graph.VertexBytes) — the unit the shared-disk store fetches and
// the unit buffer caches. ScannedEdges counts the adjacency entries
// the engine processed while holding the record (predicate checks,
// weight sums); they cost CPU but no extra I/O.
type Access struct {
	Vertex       graph.VertexID
	Bytes        int32
	ScannedEdges int32
}

// Trace is the ordered data-access log of one traversal.
type Trace struct {
	Accesses []Access
	// Touched lists the distinct vertices visited, in first-visit
	// order; the simulator records visit signatures for them.
	Touched []graph.VertexID
}

// reset empties the trace, keeping its capacity for reuse.
func (t *Trace) reset() {
	t.Accesses = t.Accesses[:0]
	t.Touched = t.Touched[:0]
}

// touchVertex appends a vertex record access, deduplicating Touched,
// and returns the access index so the engine can attribute scanned
// edges to it later.
func (t *Trace) touchVertex(g *graph.Graph, v graph.VertexID, seen map[graph.VertexID]bool) int {
	t.Accesses = append(t.Accesses, Access{Vertex: v, Bytes: g.VertexBytes(v)})
	if !seen[v] {
		seen[v] = true
		t.Touched = append(t.Touched, v)
	}
	return len(t.Accesses) - 1
}

// chargeScan attributes scanned-edge CPU work to access idx. The add
// saturates at MaxInt32: a lockstep batch aggregates up to MaxBatch
// queries' scans of one record into a single shared access, which can
// exceed int32 on synthetic max-degree graphs. The engine and the
// reference kernels all charge through this method, so saturation
// cannot break differential equality.
func (t *Trace) chargeScan(idx, edges int) {
	sum := int64(t.Accesses[idx].ScannedEdges) + int64(edges)
	if sum > math.MaxInt32 {
		sum = math.MaxInt32
	}
	t.Accesses[idx].ScannedEdges = int32(sum)
}

// TotalBytes sums the payload bytes across all accesses (with
// repeats — the cache decides what is actually fetched).
func (t *Trace) TotalBytes() int64 {
	var total int64
	for _, a := range t.Accesses {
		total += int64(a.Bytes)
	}
	return total
}

// Recommendation is one collaborative-filtering hit.
type Recommendation struct {
	Product    graph.VertexID
	Similarity float64
}

// Ranked is one RWR ranking entry.
type Ranked struct {
	Vertex graph.VertexID
	Score  float64
}

// Result carries the semantic outcome of a traversal; engines fill
// the fields relevant to their Op.
type Result struct {
	// Visited is the number of distinct vertices expanded.
	Visited int
	// Found and PathLen report SSSP success and shortest length.
	Found   bool
	PathLen int
	// Recommendations are the collaborative-filtering products above
	// threshold, best first.
	Recommendations []Recommendation
	// Ranking is the RWR top-K, best first.
	Ranking []Ranked
}

// Clone returns a Result whose slices are private copies, safe to
// retain after the Workspace that produced it is reused or pooled.
func (r Result) Clone() Result {
	if r.Recommendations != nil {
		r.Recommendations = append([]Recommendation(nil), r.Recommendations...)
	}
	if r.Ranking != nil {
		r.Ranking = append([]Ranked(nil), r.Ranking...)
	}
	return r
}

func errUnreachableOp(op Op) error {
	return fmt.Errorf("traverse: unreachable op %d", op)
}

// Execute dispatches a query to its engine through a private, freshly
// allocated Workspace, so the returned Result and Trace are caller-
// owned. The trace is never nil on success. Hot paths reuse a
// Workspace via ExecuteIn instead.
func Execute(g *graph.Graph, q Query) (Result, *Trace, error) {
	return ExecuteIn(NewWorkspace(g.NumVertices()), g, q)
}

// ExecuteIn dispatches a query to its Workspace kernel. The returned
// Result slices and Trace are owned by ws and valid only until its
// next kernel call — Clone the Result (and copy the Trace) to retain
// them. The trace is never nil on success.
func ExecuteIn(ws *Workspace, g *graph.Graph, q Query) (Result, *Trace, error) {
	if err := q.Validate(g); err != nil {
		return Result{}, nil, err
	}
	switch q.Op {
	case OpBFS:
		r, tr := ws.BFS(g, q)
		return r, tr, nil
	case OpSSSP:
		r, tr := ws.BoundedSSSP(g, q)
		return r, tr, nil
	case OpCollab:
		r, tr := ws.CollabFilter(g, q)
		return r, tr, nil
	case OpRWR:
		r, tr := ws.RandomWalk(g, q)
		return r, tr, nil
	}
	return Result{}, nil, errUnreachableOp(q.Op)
}
