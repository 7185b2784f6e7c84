package traverse

import (
	"fmt"

	"subtrav/internal/graph"
)

// Multi-source batched traversal: several same-unit queries advance
// their frontiers in lockstep waves, so a record that two queries
// touch in the same wave is loaded once for both. The paper's workload
// premise — concurrent traversals overlap heavily on hub vertices —
// is exactly the case where the wave union is much smaller than the
// sum of the per-query frontiers.
//
// Correctness is anchored by a strict invariant: every query's Result
// and Trace are bit-for-bit identical to an independent single-source
// run of the same query. Batching changes only *when* records are
// loaded (and therefore what the executor pays), never what a query
// computes or touches. Two properties make this hold:
//
//   - The kernels are wave-resumable by construction: BFS is
//     level-synchronous, and bounded SSSP expands one side per
//     iteration. A solo run is the same slot routines (engine.go)
//     called back to back; a batch interleaves them across slots.
//
//   - Per-query visit state stays fully private: each slot owns its
//     trace and its dense maps (epoch-stamped, O(1) clear). That costs
//     O(|V|) per slot, BFS or SSSP; see DESIGN.md §6.10 for the bill.
//
// The shared per-wave record-load pass is emitted as a separate
// "shared" Trace: within one wave each distinct vertex record appears
// once no matter how many queries touch it, and its ScannedEdges
// aggregates every batched query's scan work on that record, so
// replaying the shared trace against a cache and disk yields the
// batch's actual I/O and CPU cost. Across waves a record reappears —
// the cache decides whether that is a hit, just as for independent
// queries.

// MaxBatch is the largest number of queries one Batch.Run can advance
// together. A policy bound: every slot carries O(|V|) private state.
const MaxBatch = 32

// Batchable reports whether op can run in a multi-source batch.
// Collaborative filtering and RWR have data-dependent iteration
// structure with no wave alignment to exploit, so they run solo.
func Batchable(op Op) bool { return op == OpBFS || op == OpSSSP }

// BatchScratch bundles the NumVertices-sized dense structures batched
// runs share. Like traverse.Scratch it is reset per run (epoch bumps),
// so any number of Batches whose Run calls never overlap can share one
// — the simulator's event loop does exactly that. Not safe for
// concurrent use.
type BatchScratch struct {
	// waveLoaded dedups the shared trace within one wave: first toucher
	// of a record in a wave emits the shared access.
	waveLoaded graph.VertexSet
	// sharedAcc maps a vertex to its most recent shared access index,
	// so scan work lands on the wave-load that brought the record in.
	sharedAcc graph.VertexMap
	// sharedSeen dedups the shared trace's Touched across the run.
	sharedSeen graph.VertexSet
	// slots holds per-slot private maps, grown on demand to the widest
	// batch seen.
	slots []*slotMaps
}

// NewBatchScratch returns a BatchScratch sized for graphs of
// numVertices.
func NewBatchScratch(numVertices int) *BatchScratch {
	s := &BatchScratch{}
	s.grow(numVertices)
	return s
}

func (s *BatchScratch) grow(n int) {
	s.waveLoaded.Grow(n)
	s.sharedAcc.Grow(n)
	s.sharedSeen.Grow(n)
	for _, m := range s.slots {
		m.grow(n)
	}
}

// slotMaps returns the j-th slot's private maps, allocating on first
// use and resetting them for a fresh run.
func (s *BatchScratch) slotMaps(j int) *slotMaps {
	for len(s.slots) <= j {
		m := &slotMaps{}
		m.grow(s.sharedAcc.Cap())
		s.slots = append(s.slots, m)
	}
	m := s.slots[j]
	m.reset()
	return m
}

// Batch runs multi-source lockstep traversals: the wave engine with one
// slot per query and the BatchScratch as its shared-trace sink. It owns
// the per-query and shared output buffers, reused across runs.
//
// Ownership contract (mirrors Workspace): the Results, Traces, and
// shared Trace returned by Run are owned by the Batch and valid only
// until its next Run. Callers that retain a Result must Clone it;
// callers that retain a Trace must copy its slices.
//
// Not safe for concurrent use.
type Batch struct {
	engine

	slots   []slot // widest batch seen; a run uses the first len(queries)
	traces  []Trace
	ptrs    []*Trace
	results []Result
}

// NewBatch returns a Batch with a private BatchScratch sized for
// graphs of numVertices.
func NewBatch(numVertices int) *Batch {
	return NewBatchWithScratch(NewBatchScratch(numVertices))
}

// NewBatchWithScratch returns a Batch borrowing a shared BatchScratch.
// The caller must guarantee Run calls across all Batches sharing it
// never overlap (e.g. a single-threaded event loop).
func NewBatchWithScratch(s *BatchScratch) *Batch {
	return &Batch{engine: engine{sink: s}}
}

// Run advances all queries to completion in lockstep waves and returns
// per-query results and traces — bit-for-bit identical to independent
// single-source runs — plus the shared wave-ordered record-load trace
// (see the package comment at the top of this file). Only Batchable
// ops are accepted, and at most MaxBatch queries per call.
func (b *Batch) Run(g *graph.Graph, queries []Query) (results []Result, traces []*Trace, shared *Trace, err error) {
	if len(queries) == 0 {
		return nil, nil, nil, fmt.Errorf("traverse: empty batch")
	}
	if len(queries) > MaxBatch {
		return nil, nil, nil, fmt.Errorf("traverse: batch of %d queries, max %d", len(queries), MaxBatch)
	}
	for i, q := range queries {
		if !Batchable(q.Op) {
			return nil, nil, nil, fmt.Errorf("traverse: query %d: op %v is not batchable", i, q.Op)
		}
		if err := q.Validate(g); err != nil {
			return nil, nil, nil, fmt.Errorf("traverse: query %d: %w", i, err)
		}
	}

	b.begin(g, queries)
	slots := b.slots[:len(queries)]
	active := len(slots)
	// SSSP's wave 0 is its two endpoint touches; expansion starts at
	// wave 1. BFS processes its start vertex in wave 0.
	for wave := 0; active > 0; wave++ {
		b.sink.waveLoaded.Clear()
		for i := range slots {
			s := &slots[i]
			if s.done {
				continue
			}
			switch s.q.Op {
			case OpBFS:
				if wave == 0 {
					s.bfsInit()
				}
				s.bfsWave(g)
			case OpSSSP:
				if wave == 0 {
					s.ssspInit(g)
				} else {
					s.ssspWave(g)
				}
			}
			s.mirror()
			if s.done {
				active--
			}
		}
	}

	b.results, b.ptrs = b.results[:0], b.ptrs[:0]
	for i := range slots {
		b.results = append(b.results, slots[i].result)
		b.ptrs = append(b.ptrs, &b.traces[i])
	}
	return b.results, b.ptrs, &b.shared, nil
}

// begin readies the batch for one run over g.
func (b *Batch) begin(g *graph.Graph, queries []Query) {
	sc := b.sink
	sc.grow(g.NumVertices())
	sc.sharedAcc.Clear()
	sc.sharedSeen.Clear()
	b.shared.reset()
	for len(b.slots) < len(queries) {
		b.slots = append(b.slots, slot{})
		b.traces = append(b.traces, Trace{})
	}
	for i, q := range queries {
		s := &b.slots[i]
		// Rewired every run: growing slots or traces moves them.
		s.e, s.tr, s.maps = &b.engine, &b.traces[i], sc.slotMaps(i)
		s.tr.reset()
		s.arm(q)
	}
}

// mirror copies the accesses the slot has appended since its last
// mirror into the shared trace: the first toucher of a record in a
// wave emits the shared access. Called before every shared scan charge
// and after every slot's wave, so the shared trace sees touches and
// charges in exactly the order the slots made them.
//
//vet:hotpath
func (s *slot) mirror() {
	e, k := s.e, s.e.sink
	for _, a := range s.tr.Accesses[s.mirrored:] {
		if !k.waveLoaded.Add(a.Vertex) {
			continue
		}
		k.sharedAcc.Put(a.Vertex, int32(len(e.shared.Accesses)))
		e.shared.Accesses = append(e.shared.Accesses, Access{Vertex: a.Vertex, Bytes: a.Bytes})
		if k.sharedSeen.Add(a.Vertex) {
			e.shared.Touched = append(e.shared.Touched, a.Vertex)
		}
	}
	s.mirrored = len(s.tr.Accesses)
}

// chargeShared lands scan work on v's record on the shared wave-load
// that brought the record in (its most recent shared access).
//
//vet:hotpath
func (s *slot) chargeShared(v graph.VertexID, edges int) {
	s.mirror()
	if idx, ok := s.e.sink.sharedAcc.Get(v); ok {
		s.e.shared.chargeScan(int(idx), edges)
	}
}
