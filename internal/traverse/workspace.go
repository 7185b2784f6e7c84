package traverse

import (
	"sync"

	"subtrav/internal/graph"
)

// slotMaps is the private NumVertices-sized dense state of one query:
// epoch-stamped sets and maps (see graph.VertexSet/VertexMap) replacing
// per-query visited/frontier/shared hash maps. Reset per traversal by
// an O(1) epoch bump.
type slotMaps struct {
	// seen deduplicates Trace.Touched (first-visit order) — all ops.
	seen graph.VertexSet
	// mapA: BFS enqueued-set, SSSP side-A labels, RWR visit counts.
	mapA graph.VertexMap
	// mapB: SSSP side-B labels, CollabFilter shared-buyer counts.
	mapB graph.VertexMap
	// accA/accB: access-trace indices (SSSP per side; CollabFilter
	// buyer record index) so scanned edges attribute to the right
	// record access.
	accA graph.VertexMap
	accB graph.VertexMap
}

func (m *slotMaps) grow(n int) {
	m.seen.Grow(n)
	m.mapA.Grow(n)
	m.mapB.Grow(n)
	m.accA.Grow(n)
	m.accB.Grow(n)
}

func (m *slotMaps) reset() {
	m.seen.Clear()
	m.mapA.Clear()
	m.mapB.Clear()
	m.accA.Clear()
	m.accB.Clear()
}

// Scratch bundles the NumVertices-sized dense structures of a
// Workspace: its one slot's maps. A Scratch is reset at the start of
// every traversal, so it can be shared by any number of Workspaces
// whose kernel executions never overlap — the discrete-event simulator
// exploits this: its event loop runs one kernel at a time, so P units
// share a single Scratch instead of carrying P copies of O(|V|) arrays.
//
// Not safe for concurrent use.
type Scratch struct {
	slotMaps
}

// NewScratch returns a Scratch sized for graphs of numVertices.
// Running a kernel against a bigger graph grows it transparently.
func NewScratch(numVertices int) *Scratch {
	s := &Scratch{}
	s.grow(numVertices)
	return s
}

// Workspace is the reusable per-execution state of the traversal
// kernels: a dense Scratch, the BFS/SSSP wave engine with its one
// slot, insertion-ordered side lists, and pooled Trace and Result
// scratch. A steady-state traversal through a warmed Workspace performs
// zero heap allocations.
//
// Ownership contract: the *Trace returned by a Workspace kernel, and
// the Recommendations/Ranking slices inside its Result, are owned by
// the Workspace and remain valid only until its next kernel call (or
// Pool.Put). Callers that retain a Result across executions must
// Clone it; callers that retain the Trace must copy its slices. The
// one-shot package functions (BFS, Execute, ...) allocate a private
// Workspace per call and are exempt — their outputs are never reused.
//
// Not safe for concurrent use; use a Pool to share across goroutines.
type Workspace struct {
	scratch *Scratch

	// The BFS/SSSP wave engine at width one: a single slot, no sink.
	// The slot is embedded so its touch serves every kernel.
	eng engine
	slot

	// orderA/orderB are insertion-ordered compact side lists: the
	// deterministic iteration substrate that replaces map-range order
	// (CollabFilter buyers/products, RWR visit-count accumulation).
	orderA, orderB []graph.VertexID

	// Pooled outputs (see the ownership contract above).
	trace   Trace
	recs    []Recommendation
	ranking []Ranked

	// Reusable sorters: sort.Sort through a pointer field costs no
	// allocation, unlike sort.Slice's closure + reflect swapper.
	recSorter  recSorter
	rankSorter rankSorter
}

// NewWorkspace returns a Workspace with a private Scratch sized for
// graphs of numVertices.
func NewWorkspace(numVertices int) *Workspace {
	return NewWorkspaceWithScratch(NewScratch(numVertices))
}

// NewWorkspaceWithScratch returns a Workspace borrowing a shared
// Scratch. The caller must guarantee kernel executions across all
// Workspaces sharing it never overlap (e.g. a single-threaded event
// loop); each Workspace still keeps private frontier/trace/result
// buffers, so outputs live independently of sibling executions.
func NewWorkspaceWithScratch(s *Scratch) *Workspace {
	ws := &Workspace{scratch: s}
	ws.e, ws.tr, ws.maps = &ws.eng, &ws.trace, &s.slotMaps
	return ws
}

// begin readies the workspace for one traversal over g.
//
//vet:hotpath
func (ws *Workspace) begin(g *graph.Graph) {
	ws.scratch.grow(g.NumVertices())
	ws.scratch.reset()
	ws.trace.reset()
	ws.orderA = ws.orderA[:0]
	ws.orderB = ws.orderB[:0]
}

// recSorter orders recommendations best-first, product ID tie-break —
// the same total order CollabFilterReference sorts by, so any
// conforming sort yields identical output.
type recSorter struct{ s []Recommendation }

func (r *recSorter) Len() int      { return len(r.s) }
func (r *recSorter) Swap(i, j int) { r.s[i], r.s[j] = r.s[j], r.s[i] }
func (r *recSorter) Less(i, j int) bool {
	if r.s[i].Similarity != r.s[j].Similarity {
		return r.s[i].Similarity > r.s[j].Similarity
	}
	return r.s[i].Product < r.s[j].Product
}

// rankSorter orders RWR rankings best-first, vertex ID tie-break.
type rankSorter struct{ s []Ranked }

func (r *rankSorter) Len() int      { return len(r.s) }
func (r *rankSorter) Swap(i, j int) { r.s[i], r.s[j] = r.s[j], r.s[i] }
func (r *rankSorter) Less(i, j int) bool {
	if r.s[i].Score != r.s[j].Score {
		return r.s[i].Score > r.s[j].Score
	}
	return r.s[i].Vertex < r.s[j].Vertex
}

// Pool is a concurrency-safe checkout of Workspaces, backed by
// sync.Pool: the live runtime's workers borrow one per query, so the
// number of live Workspaces tracks the number of concurrently
// executing traversals and idle ones are reclaimed under memory
// pressure.
type Pool struct {
	numVertices int
	pool        sync.Pool
}

// NewPool returns a pool of Workspaces pre-sized for graphs of
// numVertices.
func NewPool(numVertices int) *Pool {
	p := &Pool{numVertices: numVertices}
	p.pool.New = func() any { return NewWorkspace(p.numVertices) }
	return p
}

// Get checks out a Workspace. Return it with Put when the execution's
// outputs have been consumed (or cloned).
func (p *Pool) Get() *Workspace { return p.pool.Get().(*Workspace) }

// Put returns a Workspace to the pool. The caller must not touch the
// Workspace — or any Trace/Result memory it produced — afterwards.
func (p *Pool) Put(ws *Workspace) { p.pool.Put(ws) }
