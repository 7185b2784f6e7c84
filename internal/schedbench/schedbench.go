// Package schedbench is the scheduler hot-path benchmark suite: its
// fixtures and the one table of cells (Table) that both `go test
// -bench` and `subtrav-bench sched` run on internal/benchkit. The
// fixtures pin every source of randomness to a seed, so two runs on
// the same machine measure the same work.
//
// The suite covers the three operations that dominate a scheduling
// round (Figure 6 pipeline):
//
//   - BuildAnchors — the workload-aware affinity matrix build, in both
//     its snapshot-cache form and the per-(vertex, unit) reference
//     form, compared as an interleaved ratio;
//   - DispatchRound — a full Auction.Assign segment (matrix build +
//     auction + fallbacks), gated at the one allocation it returns;
//   - AuctioneerAssign — the incremental auction alone on a contested
//     problem, a price war of thousands of bids, gated at none;
//   - Record and RecordTrace — signature-table visit recording, the
//     traversal-side half of the signature contract, one vertex and
//     one completed trace at a time.
//
// Its wall-clock numbers are printed, not committed (README,
// "Performance", names the BENCHMARK.json metric that tracks each);
// what it gates are counts: the snapshot build takes at least
// MinLockRatio× fewer signature-stripe locks than the reference, and
// RecordTrace at least MinTraceLockRatio× fewer than a Record loop
// over the same trace.
package schedbench

import (
	"fmt"

	"subtrav/internal/affinity"
	"subtrav/internal/auction"
	"subtrav/internal/benchkit"
	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
	"subtrav/internal/sched"
	"subtrav/internal/signature"
	"subtrav/internal/traverse"
	"subtrav/internal/xrand"
)

// NumVertices is the fixture graph size. Large enough that signature
// shards and caches see realistic spread, small enough to build in
// milliseconds.
const NumVertices = 4096

// Seed pins fixture generation.
const Seed = 0x5EDBE7C4

// unit is a canned unit view/state with plausible mixed load.
type unit struct {
	queue     int
	completed int
	memory    int64
}

func (u *unit) QueueLen() int              { return u.queue }
func (u *unit) CompletedSince(t int64) int { return u.completed }
func (u *unit) MemoryBudget() int64        { return u.memory }
func (u *unit) Busy() bool                 { return u.queue > 0 }

// Fixture is one reproducible scheduler hot-path workload: a seeded
// random graph of the given average degree, a pre-warmed signature
// table, an affinity scorer, P units and a P-task batch.
type Fixture struct {
	Sigs    *signature.Table
	Scorer  *affinity.Scorer
	Auction *sched.Auction

	Units      []affinity.UnitView
	UnitStates []sched.UnitState
	Anchors    [][]graph.VertexID
	Tasks      []*sched.Task
}

// NewFixture builds the workload for P units over a graph with the
// given average degree.
func NewFixture(p, degree int) (*Fixture, error) {
	g, err := graphgen.Random(graphgen.RandomConfig{
		NumVertices: NumVertices,
		NumEdges:    NumVertices * degree / 2,
		Kind:        graph.Undirected,
		Seed:        Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("schedbench: %w", err)
	}
	rng := xrand.New(Seed ^ uint64(p)<<8 ^ uint64(degree))

	// Pre-warm the signature table the way a running cluster would:
	// each unit has traversed a contiguous region (strong locality),
	// regions overlap their neighbors by half, and a sprinkle of
	// random visits gives lists multiple entries per vertex.
	sigs := signature.NewTable(0)
	clock := &signature.ManualClock{}
	var now int64
	region := NumVertices / p
	for proc := 0; proc < p; proc++ {
		lo := proc * region
		hi := lo + region + region/2
		for v := lo; v < hi; v++ {
			now++
			sigs.Record(graph.VertexID(v%NumVertices), int32(proc), now)
		}
	}
	for i := 0; i < NumVertices; i++ {
		now++
		sigs.Record(graph.VertexID(rng.Intn(NumVertices)), int32(rng.Intn(p)), now)
	}
	clock.Set(now + 1)

	scorer, err := affinity.NewScorer(g, sigs, clock, affinity.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("schedbench: %w", err)
	}
	auc, err := sched.NewAuction(scorer, sched.AuctionConfig{
		NumUnits:      p,
		Epsilon:       1e-3,
		WorkloadAware: true,
	})
	if err != nil {
		return nil, fmt.Errorf("schedbench: %w", err)
	}

	units := make([]affinity.UnitView, p)
	states := make([]sched.UnitState, p)
	for i := 0; i < p; i++ {
		u := &unit{
			queue:     i % 5,
			completed: 2,
			memory:    int64(32) << 20,
		}
		if i%7 == 0 {
			u.memory = 0 // a few unlimited-buffer units
		}
		units[i] = u
		states[i] = u
	}

	// One segment's worth of tasks: P queries with locality-clustered
	// starts; every fourth is a bidirectional SSSP, contributing a
	// second affinity anchor like the live batch path does.
	tasks := make([]*sched.Task, p)
	anchors := make([][]graph.VertexID, p)
	for i := 0; i < p; i++ {
		start := graph.VertexID(rng.Intn(NumVertices))
		q := traverse.Query{Op: traverse.OpBFS, Start: start, Depth: 2}
		anchors[i] = []graph.VertexID{start}
		if i%4 == 3 {
			target := graph.VertexID(rng.Intn(NumVertices))
			if target != start {
				q = traverse.Query{Op: traverse.OpSSSP, Start: start, Target: target, Depth: 4}
				anchors[i] = []graph.VertexID{start, target}
			}
		}
		tasks[i] = &sched.Task{ID: int64(i), Query: q}
	}

	return &Fixture{
		Sigs:       sigs,
		Scorer:     scorer,
		Auction:    auc,
		Units:      units,
		UnitStates: states,
		Anchors:    anchors,
		Tasks:      tasks,
	}, nil
}

// contestedProblem is p tasks after the same three units at equal
// benefit, two arcs each: more bidders than objects they can reach, so
// the auction is a price war that ends only when the losers' profit
// reaches the infeasibility floor — (2p+1)/ε bids, each of which used
// to cost the bidder queue a slot of capacity.
func contestedProblem(p int) auction.Problem {
	prob := auction.Problem{NumCols: p, Rows: make([][]auction.Arc, p)}
	for i := range prob.Rows {
		prob.Rows[i] = []auction.Arc{{Col: i % 3, Benefit: 1}, {Col: (i + 1) % 3, Benefit: 1}}
	}
	return prob
}

// UnitCounts and Degrees are the BuildAnchors matrix axes: P ∈ {4, 16,
// 64} × degree ∈ {8, 64}. DispatchRound and Record run at degree 8.
var (
	UnitCounts = []int{4, 16, 64}
	Degrees    = []int{8, 64}
)

// MinLockRatio is the floor on reference÷snapshot signature-lock
// acquisitions per build. The snapshot path takes one lock per distinct
// closure vertex, the reference ~P per closure vertex per task, so even
// the P=4 cells clear it several times over.
const MinLockRatio = 2

// TraceLen is the length of the RecordTrace cells' trace, and
// MinTraceLockRatio the floor on Record-loop÷RecordTrace lock
// acquisitions over it: one lock per vertex against one per stripe,
// 512 against 64.
const (
	TraceLen          = 512
	MinTraceLockRatio = 4
)

// Table is the suite's one table of cells, a group per fixture.
func Table() []benchkit.Group {
	var table []benchkit.Group
	for _, p := range UnitCounts {
		for _, deg := range Degrees {
			table = append(table, func() ([]benchkit.Cell, error) {
				fx, err := NewFixture(p, deg)
				if err != nil {
					return nil, err
				}
				at := fmt.Sprintf("P=%d/deg=%d", p, deg)
				cells := []benchkit.Cell{
					{Name: "BuildAnchors/snap/" + at, Count: fx.Sigs.LockAcquisitions,
						Run: func() error { fx.Scorer.BuildAnchors(fx.Anchors, fx.Units); return nil }},
					{Name: "BuildAnchors/ref/" + at, Count: fx.Sigs.LockAcquisitions,
						Versus: "BuildAnchors/snap/" + at, Floor: benchkit.Floor{Count: MinLockRatio},
						Run: func() error { fx.Scorer.BuildAnchorsReference(fx.Anchors, fx.Units); return nil }},
				}
				if deg != Degrees[0] {
					return cells, nil
				}
				// At the first degree, also a full round and — on a
				// fixture of its own, since they mutate the signature
				// table the cells above read — the recording cells.
				rec, err := NewFixture(p, deg)
				if err != nil {
					return nil, err
				}
				rng := xrand.New(Seed ^ uint64(p))
				trace := make([]graph.VertexID, TraceLen)
				for i := range trace {
					trace[i] = graph.VertexID(rng.Intn(NumVertices))
				}
				auc, err := auction.NewAuctioneer(auction.AuctioneerConfig{
					NumCols: p, Options: auction.Options{Epsilon: 1e-3},
				})
				if err != nil {
					return nil, err
				}
				contested := contestedProblem(p)
				var v, t int64
				return append(cells,
					// The placement slice is the caller's (sched.Scheduler);
					// everything else a round builds is scratch.
					benchkit.Cell{Name: "DispatchRound/" + at, MaxAllocs: 1,
						Run: func() error { fx.Auction.Assign(fx.Tasks, fx.UnitStates); return nil }},
					benchkit.Cell{Name: fmt.Sprintf("AuctioneerAssign/P=%d", p), NoAlloc: true, Run: func() error {
						auc.ResetPrices() // carried prices would end the war early
						_, err := auc.Assign(contested)
						return err
					}},
					benchkit.Cell{Name: fmt.Sprintf("Record/P=%d", p), NoAlloc: true, Run: func() error {
						t++
						v++
						rec.Sigs.Record(graph.VertexID(v%NumVertices), int32(v%int64(p)), t)
						return nil
					}},
					benchkit.Cell{Name: fmt.Sprintf("RecordTrace/P=%d", p), NoAlloc: true,
						Count: rec.Sigs.LockAcquisitions, Run: func() error {
							t++
							rec.Sigs.RecordTrace(trace, int32(t%int64(p)), t)
							return nil
						}},
					benchkit.Cell{Name: fmt.Sprintf("RecordLoop/P=%d", p), NoAlloc: true,
						Count: rec.Sigs.LockAcquisitions, Versus: fmt.Sprintf("RecordTrace/P=%d", p),
						Floor: benchkit.Floor{Count: MinTraceLockRatio}, Run: func() error {
							t++
							for _, v := range trace {
								rec.Sigs.Record(v, int32(t%int64(p)), t)
							}
							return nil
						}}), nil
			})
		}
	}
	return table
}

// Run executes the suite: smoke runs every cell once (CI), a full run
// calibrates iteration counts and interleaves the snap↔ref pairs.
func Run(smoke bool, logf func(format string, args ...any)) (*benchkit.Report, error) {
	return benchkit.Run("sched", smoke, Table(), logf)
}
