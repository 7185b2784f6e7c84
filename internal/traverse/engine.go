package traverse

import "subtrav/internal/graph"

// The wave engine. BFS and bounded SSSP are written once, as routines
// that advance one resumable query — a slot — by one wave. A Workspace
// is an engine with a single slot and no shared-trace sink, run to
// completion; a Batch is an engine with up to MaxBatch slots advanced
// in lockstep, whose touches also feed the shared wave trace. A solo
// query is a batch of width one, so the two cannot drift: Result and
// Trace are pinned bit-for-bit against the *Reference kernels, solo or
// batched.

// engine is the state every slot of one Workspace or Batch shares. The
// wave scratch is transient within one slot's wave, and slots advance
// one at a time, so a single copy serves them all.
type engine struct {
	// expanders is the wave's expanding-vertex list (frontier members
	// that passed predicates, the visit cap, and the depth bound), in
	// pop order; the frontier the BFS expansion pass walks.
	expanders []graph.VertexID

	// sink, when non-nil, is the dedup state behind the shared wave
	// trace, which every slot's touches and scan charges then also
	// feed (see batch.go). Nil for a Workspace.
	sink   *BatchScratch
	shared Trace
}

// side is one frontier of a search. BFS is one-sided (side a, with
// dist as a membership-only enqueued set); bounded SSSP runs two that
// meet in the middle.
type side struct {
	frontier, next []graph.VertexID // double-buffered, reused across runs
	dist           *graph.VertexMap // this side's labels
	acc            *graph.VertexMap // vertex → access index, for scan charges (SSSP)
	depth, limit   int              // hops expanded so far; SSSP hop budget
}

// seed starts a side at root: labelled depth 0 and alone in the
// frontier.
func (sd *side) seed(root graph.VertexID, dist *graph.VertexMap) {
	sd.dist = dist
	dist.Put(root, 0)
	sd.frontier = append(sd.frontier[:0], root)
}

// flip makes next the frontier, a hop deeper. The retired buffer is
// regrown to the new frontier's capacity, so the pair stays symmetric:
// which of the two a later wave lands in depends on how many waves ran
// before it, and must not decide whether that wave has to grow.
//
//vet:hotpath
func (sd *side) flip(next []graph.VertexID) {
	retired := sd.frontier[:0]
	if cap(retired) < cap(next) {
		retired = make([]graph.VertexID, 0, cap(next)) //lint:allow allocfree amortized growth: mirrors next's own append growth, so a warmed slot never re-allocates
	}
	sd.frontier, sd.next = next, retired
	sd.depth++
}

// active reports whether the side can still expand.
func (sd *side) active() bool { return sd.depth < sd.limit && len(sd.frontier) > 0 }

// slot is the resumable private state of one BFS/SSSP query. No query
// can observe another's visit marks — trace and dense maps are its own
// — so predicates, MaxVisits caps, and meet detection behave exactly
// as in isolation however many slots share the engine.
type slot struct {
	e    *engine
	tr   *Trace    // this query's trace
	maps *slotMaps // this query's dense visit state

	q      Query
	done   bool
	result Result // valid once done

	visited  int
	mirrored int // accesses already copied to the shared trace
	a, b     side
	capped   bool // SSSP: MaxVisits reached, the search gives up expanding
	best     int  // SSSP: shortest meeting length so far, -1 if none
}

// arm readies the slot for q: everything but its wiring and its
// frontier buffers is zeroed.
//
//vet:hotpath
func (s *slot) arm(q Query) {
	*s = slot{e: s.e, tr: s.tr, maps: s.maps, q: q, best: -1,
		a: side{frontier: s.a.frontier[:0], next: s.a.next[:0]},
		b: side{frontier: s.b.frontier[:0], next: s.b.next[:0]}}
}

// touch appends a vertex record access to the slot's trace,
// deduplicating Touched through its dense seen-set, and returns the
// access index (mirrors Trace.touchVertex on map state). It knows
// nothing of the sink — a Batch copies the slot's new accesses into the
// shared trace afterwards (slot.mirror) — because it is the hottest
// call of every wave and with the shared half inside it no longer fits
// the compiler's inlining budget (measured: +25–45 % on solo SSSP).
//
//vet:hotpath
func (s *slot) touch(g *graph.Graph, v graph.VertexID) int {
	t := s.tr
	t.Accesses = append(t.Accesses, Access{Vertex: v, Bytes: g.VertexBytes(v)})
	if s.maps.seen.Add(v) {
		t.Touched = append(t.Touched, v)
	}
	return len(t.Accesses) - 1
}

// chargeScan attributes edge-scan work on v's record to the slot's
// access acc and, under a sink, to the shared trace as well
// (chargeShared, batch.go).
//
//vet:hotpath
func (s *slot) chargeScan(acc int, v graph.VertexID, edges int) {
	s.tr.chargeScan(acc, edges)
	if s.e.sink != nil {
		s.chargeShared(v, edges)
	}
}

// BFS runs a bounded-depth breadth-first search from q.Start,
// expanding at most q.Depth hops and honoring vertex/edge predicates:
// a vertex failing VertexPred is touched (its record must be loaded to
// evaluate θ) but not expanded; an edge failing EdgePred is scanned
// (inline in the source record, CPU only) but not followed.
//
// It is the zero-steady-state-allocation kernel: the engine's BFS
// waves run to completion on the workspace's one slot.
//
//vet:hotpath
func (ws *Workspace) BFS(g *graph.Graph, q Query) (Result, *Trace) {
	ws.begin(g)
	s := &ws.slot
	s.arm(q)
	s.bfsInit()
	for !s.done {
		s.bfsWave(g)
	}
	return s.result, &ws.trace
}

// bfsInit seeds the slot's frontier and enqueued set with q.Start.
//
//vet:hotpath
func (s *slot) bfsInit() {
	s.a.seed(s.q.Start, &s.maps.mapA)
}

// bfsWave processes the slot's entire depth-d frontier and builds the
// depth-d+1 frontier. BFS runs level-synchronously — the exact pop
// order of a FIFO queue — with each level split into a process pass
// (touch every frontier vertex, apply VertexPred / MaxVisits / depth
// bound, charge scans: all the trace-visible work) and an expansion
// pass that scans the expanding vertices' out-edges in slot order. The
// split is what lets a wave the visit cap cuts short skip its
// expansion: a capped query from a hub otherwise scans the out-edges
// of hundreds of vertices for a frontier nobody will pop (svc-hot's
// Zipf-hot keys are exactly that query).
//
// The expansion pass also stops early, once next holds need =
// MaxVisits − visited vertices, when the query is capped and has no
// VertexPred. That is exact because, without a vertex predicate, every
// pop counts one visit: the next wave pops exactly need vertices of
// next, in the order they were enqueued, and its need-th pop sets done.
// Nothing past index need − 1 would be touched, charged or expanded,
// and the enqueued set is never read again. With a VertexPred, a pop
// that fails it does not count, so how many pops the next wave makes
// is unknown and the full pass runs.
//
//vet:hotpath
func (s *slot) bfsWave(g *graph.Graph) {
	q, a, e := &s.q, &s.a, s.e
	// Process pass. Touches happen in pop order; a vertex failing
	// VertexPred is not expanded, the visit cap drops the rest of the
	// traversal (the remainder of this frontier and its expansion), and
	// the depth bound stops expansion — exactly the per-pop sequence of
	// a single-queue BFS.
	exp := e.expanders[:0]
	for _, v := range a.frontier {
		acc := s.touch(g, v)
		if q.VertexPred != nil && !q.VertexPred(g.VertexProps(v)) {
			continue
		}
		s.visited++
		if q.MaxVisits > 0 && s.visited >= q.MaxVisits {
			s.done = true
			break
		}
		if a.depth >= q.Depth {
			continue
		}
		lo, hi := g.EdgeSlots(v)
		s.chargeScan(acc, v, int(hi-lo))
		exp = append(exp, v)
	}
	e.expanders = exp

	// Expansion pass: enqueue unseen targets as discovered, up to the
	// next wave's last pop (need; -1 when uncapped or predicated).
	next := a.next[:0]
	if !s.done {
		enqueued, need := a.dist, -1
		if q.MaxVisits > 0 && q.VertexPred == nil {
			need = q.MaxVisits - s.visited
		}
	expand:
		for _, v := range exp {
			lo, hi := g.EdgeSlots(v)
			for es := lo; es < hi; es++ {
				if q.EdgePred != nil && !q.EdgePred(g.EdgeProps(g.LogicalEdge(es))) {
					continue
				}
				if u := g.TargetAt(es); !enqueued.Contains(u) {
					enqueued.Put(u, 0)
					next = append(next, u)
					if len(next) == need {
						break expand
					}
				}
			}
		}
	}
	a.flip(next)
	if len(next) == 0 {
		s.done = true
	}
	if s.done {
		s.result = Result{Visited: s.visited}
	}
}

// BoundedSSSP finds whether a path of length <= q.Depth connects
// q.Start and q.Target by running two breadth-first frontiers, one
// from each endpoint, each at most ceil(Depth/2) hops, until they
// meet (Section II, example 1). PathLen is the exact shortest length
// when Found and the search ran to completion.
//
// When q.MaxVisits > 0 the search gives up expanding once that many
// vertices are labeled (throughput services bound hub explosions this
// way); a capped search is best-effort — Found may be false for
// connected pairs, and PathLen may exceed the true shortest length.
//
// It is the dense-scratch kernel: the engine's SSSP waves run
// to completion on the workspace's one slot. Per-side labels and access
// indices live in epoch-stamped maps, frontiers in double-buffered
// reusable slices.
//
//vet:hotpath
func (ws *Workspace) BoundedSSSP(g *graph.Graph, q Query) (Result, *Trace) {
	ws.begin(g)
	s := &ws.slot
	s.arm(q)
	s.ssspInit(g)
	for !s.done {
		s.ssspWave(g)
	}
	return s.result, &ws.trace
}

// ssspInit is the search's wave 0: the Start==Target short-circuit,
// the two endpoint touches, and the initial frontiers.
//
//vet:hotpath
func (s *slot) ssspInit(g *graph.Graph) {
	q, m, a, b := &s.q, s.maps, &s.a, &s.b
	if q.Start == q.Target {
		s.touch(g, q.Start)
		s.result = Result{Visited: 1, Found: true, PathLen: 0}
		s.done = true
		return
	}
	a.seed(q.Start, &m.mapA)
	b.seed(q.Target, &m.mapB)
	a.acc, b.acc = &m.accA, &m.accB
	a.acc.Put(q.Start, int32(s.touch(g, q.Start)))
	b.acc.Put(q.Target, int32(s.touch(g, q.Target)))
	s.visited = 2
	a.limit = (q.Depth + 1) / 2 // ceil(δ/2)
	b.limit = q.Depth / 2       // floor(δ/2); combined = δ
}

// ssspWave runs one iteration of the bidirectional search: the
// termination check, one side expansion, and the best-length early
// exit.
//
//vet:hotpath
func (s *slot) ssspWave(g *graph.Graph) {
	a, b := &s.a, &s.b
	if s.capped || !(a.active() || b.active()) {
		s.ssspFinish()
		return
	}
	// Alternate sides, smaller frontier first, the usual bidirectional
	// heuristic.
	if a.active() && (!b.active() || len(a.frontier) <= len(b.frontier)) {
		s.ssspPush(g, a, b)
	} else {
		s.ssspPush(g, b, a)
	}
	if s.best >= 0 && s.best <= a.depth+b.depth {
		// No shorter meeting can appear once both processed depths
		// cover the best found length.
		s.ssspFinish()
	}
}

// ssspFinish ends the search: a meeting counts only within the bound.
//
//vet:hotpath
func (s *slot) ssspFinish() {
	s.done = true
	s.result = Result{Visited: s.visited}
	if s.best >= 0 && s.best <= s.q.Depth {
		s.result.Found, s.result.PathLen = true, s.best
	}
}

// ssspPush advances side me one hop against the other side's labels:
// per frontier vertex in order, charge its scan, then label its
// unlabelled targets in slot order.
//
//vet:hotpath
func (s *slot) ssspPush(g *graph.Graph, me, other *side) {
	q, dist := &s.q, me.dist
	me.next = me.next[:0]
	for _, v := range me.frontier {
		if s.capped {
			break
		}
		lo, hi := g.EdgeSlots(v)
		vAcc, _ := me.acc.Get(v)
		s.chargeScan(int(vAcc), v, int(hi-lo))
		for es := lo; es < hi; es++ {
			if q.EdgePred != nil && !q.EdgePred(g.EdgeProps(g.LogicalEdge(es))) {
				continue
			}
			if u := g.TargetAt(es); !dist.Contains(u) && !s.ssspLabel(g, me, other, u) {
				break
			}
		}
	}
	me.flip(me.next)
}

// ssspLabel records me's discovery of u one hop past its frontier:
// label, touch, meet-check against the other side, honor the visit
// cap, and otherwise queue u for the next wave. A vertex the other
// side has labelled is a meeting and is not expanded further. It
// returns false once the cap is hit and the search must stop.
//
//vet:hotpath
func (s *slot) ssspLabel(g *graph.Graph, me, other *side, u graph.VertexID) bool {
	me.dist.Put(u, int32(me.depth+1))
	me.acc.Put(u, int32(s.touch(g, u)))
	s.visited++
	if d, ok := other.dist.Get(u); ok {
		if total := me.depth + 1 + int(d); s.best < 0 || total < s.best {
			s.best = total
		}
		return true
	}
	if s.q.MaxVisits > 0 && s.visited >= s.q.MaxVisits {
		s.capped = true
		return false
	}
	me.next = append(me.next, u)
	return true
}
