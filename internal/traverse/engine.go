package traverse

import (
	"math"

	"subtrav/internal/graph"
)

// The wave engine. BFS and bounded SSSP are written once, as routines
// that advance one resumable query — a slot — by one wave. A Workspace
// is an engine with a single slot and no shared-trace sink, run to
// completion; a Batch is an engine with up to MaxBatch slots advanced
// in lockstep, whose touches also feed the shared wave trace. A solo
// query is a batch of width one, so the two cannot drift: Result and
// Trace are pinned bit-for-bit against the *Reference kernels in every
// direction mode, solo or batched.

// engine is the state every slot of one Workspace or Batch shares. The
// wave scratch is transient within one slot's wave, and slots advance
// one at a time, so a single copy serves them all.
type engine struct {
	// pos is the dense frontier view of a pull wave: expanding vertex →
	// position in the wave's frontier order. Rebuilt (epoch bump +
	// repopulate) per pull wave. It points into the owning Scratch or
	// BatchScratch so engines that never overlap can share it.
	pos *graph.VertexMap

	// expanders is the wave's expanding-vertex list (frontier members
	// that passed predicates, the visit cap, and the depth bound), in
	// pop order; the frontier the BFS expansion pass — push or pull —
	// actually walks.
	expanders []graph.VertexID

	// cands collects a pull wave's bottom-up discoveries; candsOut and
	// candCounts are the counting-scatter scratch that reorders them
	// into push discovery order (see orderPullCands).
	cands      []pullCand
	candsOut   []pullCand
	candCounts []int32

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
	pull           bool             // direction of the previous expansion
	// unexplored is Beamer's m_u: out-edge slots of vertices this side
	// has not labelled, maintained incrementally. Each side explores its
	// own label set, so the accounting is per side. int64 so synthetic
	// max-degree graphs can't wrap it.
	unexplored int64
}

// seed starts a side at root: labelled depth 0 and alone in the
// frontier.
func (sd *side) seed(g *graph.Graph, root graph.VertexID, dist *graph.VertexMap) {
	sd.dist = dist
	dist.Put(root, 0)
	sd.frontier = append(sd.frontier[:0], root)
	sd.unexplored = g.NumSlots() - int64(g.Degree(root))
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
	dir    DirectionConfig // resolved thresholds
	stats  DirStats
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
	*s = slot{e: s.e, tr: s.tr, maps: s.maps, q: q, dir: q.Dir.withDefaults(), best: -1,
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

// frontierEdges sums the out-degrees of a frontier — Beamer's m_f, the
// work a push wave is about to do.
//
//vet:hotpath
func frontierEdges(g *graph.Graph, frontier []graph.VertexID) int64 {
	var sum int64
	for _, v := range frontier {
		sum += int64(g.Degree(v))
	}
	return sum
}

// pullDiscover is the bottom-up half of every pull wave: scan each
// vertex outside member and probe its in-edges for a frontier parent,
// keeping the minimum (frontier position << 32 | forward slot) key —
// the rank at which the push expansion would have discovered it.
// Ordering the discoveries by key (orderPullCands) then yields the push
// discovery order exactly. The probe cannot early-exit on the first
// parent (the classic bottom-up shortcut) precisely because the
// *minimum* key is needed; the win is that the in-edges of the
// shrinking unvisited set are far fewer than the out-edges of a dense
// frontier.
//
// Pull probing walks the in-CSR index, which is in-memory adjacency
// metadata like the forward offsets — not a record load — so it leaves
// no mark on any trace.
//
//vet:hotpath
func (e *engine) pullDiscover(g *graph.Graph, q *Query, frontier []graph.VertexID, member *graph.VertexMap) []pullCand {
	in := g.In()
	pos := e.pos
	pos.Clear()
	for i, v := range frontier {
		pos.Put(v, int32(i))
	}
	cands := e.cands[:0]
	n := graph.VertexID(g.NumVertices())
	for u := graph.VertexID(0); u < n; u++ {
		if member.Contains(u) {
			continue
		}
		lo, hi := in.Edges(u)
		best := uint64(math.MaxUint64)
		for p := lo; p < hi; p++ {
			i, ok := pos.Get(in.Sources[p])
			if !ok {
				continue
			}
			key := uint64(i)<<32 | uint64(in.FwdSlot[p])
			if key >= best {
				continue
			}
			if q.EdgePred != nil && !q.EdgePred(g.EdgeProps(g.LogicalEdge(int64(in.FwdSlot[p])))) {
				continue
			}
			best = key
		}
		if best != math.MaxUint64 {
			cands = append(cands, pullCand{key: best, u: u})
		}
	}
	e.cands = cands
	return orderPullCands(cands, len(frontier), &e.candsOut, &e.candCounts)
}

// BFS runs a bounded-depth breadth-first search from q.Start,
// expanding at most q.Depth hops and honoring vertex/edge predicates:
// a vertex failing VertexPred is touched (its record must be loaded to
// evaluate θ) but not expanded; an edge failing EdgePred is scanned
// (inline in the source record, CPU only) but not followed.
//
// This one-shot form allocates a private Workspace; executors on the
// hot path reuse one through Workspace.BFS / ExecuteIn instead.
func BFS(g *graph.Graph, q Query) (Result, *Trace) {
	return NewWorkspace(g.NumVertices()).BFS(g, q)
}

// BFS is the zero-steady-state-allocation direction-optimizing kernel:
// the engine's BFS waves run to completion on the workspace's one slot.
//
//vet:hotpath
func (ws *Workspace) BFS(g *graph.Graph, q Query) (Result, *Trace) {
	ws.begin(g)
	s := &ws.slot
	s.arm(q)
	s.bfsInit(g)
	for !s.done {
		s.bfsWave(g)
	}
	return s.result, &ws.trace
}

// bfsInit seeds the slot's frontier and enqueued set with q.Start.
//
//vet:hotpath
func (s *slot) bfsInit(g *graph.Graph) {
	s.a.seed(g, s.q.Start, &s.maps.mapA)
}

// bfsWave processes the slot's entire depth-d frontier and builds the
// depth-d+1 frontier. BFS runs level-synchronously — the exact pop
// order of a FIFO queue — with each level split into a process pass
// (touch every frontier vertex, apply VertexPred / MaxVisits / depth
// bound, charge scans: all the trace-visible work) and an expansion
// pass that builds the next frontier either top-down (bfsPush) or
// bottom-up (bfsPull) per the Direction config. Both expansions
// produce the identical frontier, so push and pull waves leave
// identical Results and Traces.
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
	var mF int64
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
		mF += hi - lo
	}
	e.expanders = exp

	// Expansion pass: push and pull build the identical next frontier;
	// only the work done differs.
	next := a.next[:0]
	if !s.done && len(exp) > 0 {
		pull := s.dir.next(a.pull, mF, a.unexplored, len(exp), g.NumVertices())
		s.stats.record(pull, a.pull, a.depth == 0)
		a.pull = pull
		if pull {
			next = s.bfsPull(g, exp, next)
		} else {
			next = s.bfsPush(g, exp, next)
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

// bfsPush is the top-down expansion: scan each expanding vertex's
// out-edges in order and enqueue unseen targets as discovered.
//
//vet:hotpath
func (s *slot) bfsPush(g *graph.Graph, exp, next []graph.VertexID) []graph.VertexID {
	q, enqueued, unexplored := &s.q, s.a.dist, s.a.unexplored
	for _, v := range exp {
		lo, hi := g.EdgeSlots(v)
		for es := lo; es < hi; es++ {
			if q.EdgePred != nil && !q.EdgePred(g.EdgeProps(g.LogicalEdge(es))) {
				continue
			}
			u := g.TargetAt(es)
			if enqueued.Contains(u) {
				continue
			}
			enqueued.Put(u, 0)
			unexplored -= int64(g.Degree(u))
			next = append(next, u)
		}
	}
	s.a.unexplored = unexplored
	return next
}

// bfsPull is the bottom-up expansion: enqueue pullDiscover's
// discoveries, which arrive in bfsPush's output order.
//
//vet:hotpath
func (s *slot) bfsPull(g *graph.Graph, exp, next []graph.VertexID) []graph.VertexID {
	a := &s.a
	for _, c := range s.e.pullDiscover(g, &s.q, exp, a.dist) {
		a.dist.Put(c.u, 0)
		a.unexplored -= int64(g.Degree(c.u))
		next = append(next, c.u)
	}
	return next
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
func BoundedSSSP(g *graph.Graph, q Query) (Result, *Trace) {
	return NewWorkspace(g.NumVertices()).BoundedSSSP(g, q)
}

// BoundedSSSP is the dense-scratch direction-optimizing kernel: the
// engine's SSSP waves run to completion on the workspace's one slot.
// Per-side labels and access indices live in epoch-stamped maps,
// frontiers in double-buffered reusable slices, and each side picks
// push or pull per wave independently.
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
	a.seed(g, q.Start, &m.mapA)
	b.seed(g, q.Target, &m.mapB)
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
		s.ssspStep(g, a, b)
	} else {
		s.ssspStep(g, b, a)
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

// ssspStep advances side me one hop against the other side's labels,
// top-down or bottom-up per the direction heuristic.
//
//vet:hotpath
func (s *slot) ssspStep(g *graph.Graph, me, other *side) {
	var mF int64
	if s.dir.Mode == DirAuto && !me.pull {
		mF = frontierEdges(g, me.frontier)
	}
	pull := s.dir.next(me.pull, mF, me.unexplored, len(me.frontier), g.NumVertices())
	s.stats.record(pull, me.pull, me.depth == 0)
	me.pull = pull
	me.next = me.next[:0]
	if pull {
		s.ssspPull(g, me, other)
	} else {
		s.ssspPush(g, me, other)
	}
	me.flip(me.next)
}

// ssspPush advances me's frontier a hop top-down into me.next: per
// frontier vertex in order, charge its scan, then label its unlabelled
// targets in slot order.
//
//vet:hotpath
func (s *slot) ssspPush(g *graph.Graph, me, other *side) {
	q, dist := &s.q, me.dist
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
}

// ssspPull advances me's frontier a hop bottom-up. pullDiscover finds,
// for every vertex this side has not labelled, its earliest qualifying
// in-edge from the frontier, in top-down discovery order. The emission
// pass then replays ssspPush exactly — per frontier vertex in order:
// charge its scan, label its discoveries in slot order — so the Trace
// (touches interleave with labelling here, unlike BFS) and every
// counter are bit-for-bit identical. The other side's labels never
// change during one side's expansion, so the precomputed discoveries
// cannot go stale.
//
//vet:hotpath
func (s *slot) ssspPull(g *graph.Graph, me, other *side) {
	cands := s.e.pullDiscover(g, &s.q, me.frontier, me.dist)
	ci := 0
	for i, v := range me.frontier {
		if s.capped {
			break
		}
		lo, hi := g.EdgeSlots(v)
		vAcc, _ := me.acc.Get(v)
		s.chargeScan(int(vAcc), v, int(hi-lo))
		for ci < len(cands) && int(cands[ci].key>>32) == i {
			u := cands[ci].u
			ci++
			if !s.ssspLabel(g, me, other, u) {
				break
			}
		}
	}
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
	me.unexplored -= int64(g.Degree(u))
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
