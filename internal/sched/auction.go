package sched

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"subtrav/internal/affinity"
	"subtrav/internal/auction"
	"subtrav/internal/graph"
	"subtrav/internal/obs"
)

// AuctionConfig configures the paper's scheduler (named SCH in the
// evaluation).
type AuctionConfig struct {
	// NumUnits is the fixed processing-unit count P.
	NumUnits int
	// Epsilon is the auction's minimum price increment.
	Epsilon float64
	// WorkloadAware applies the Eq. 4 reciprocal queue weighting;
	// disabling it yields the affinity-only ablation.
	WorkloadAware bool
	// ColdScore, when positive, gives every task an additional arc to
	// the currently least-loaded unit with affinity score ColdScore
	// (Eq. 4-weighted like any other arc). It is the escape valve the
	// paper leaves implicit: when a task's affinitive units are all
	// deep in queue, an idle unit offering a cold cache becomes the
	// better deal, which bounds queueing latency at light load.
	// ColdScore calibrates how much of a perfect-affinity score an
	// idle cold unit is worth (≈ warm/cold service-time ratio); 0
	// disables the arc (paper-faithful behaviour).
	ColdScore float64
}

// Auction is the balance-affinity scheduler of Sections IV-V. Each
// Assign call runs the Figure 6 pipeline: it segments the batch to at
// most P tasks (Algorithm 1 assigns at most one subgraph per unit per
// auction), builds the workload-aware affinity matrix from the visit
// signatures and current queue lengths, and runs the incremental
// auction, warm-starting prices from previous rounds. Tasks whose
// affinity row is empty (no unit above η) or that the auction leaves
// unassigned fall back to the least-loaded unit.
//
// Everything a round builds on the way — unit views, anchors, the
// affinity matrix, the auction problem and its matching — lives in
// scratch the scheduler keeps, so an Assign in steady state allocates
// the slice it returns and nothing else.
type Auction struct {
	scorer     *affinity.Scorer
	auctioneer *auction.Auctioneer
	cfg        AuctionConfig
	name       string

	// Per-round scratch. A segment is at most P tasks, so everything
	// but arcs and expl is sized for good by NewAuction.
	extra     []int               // tasks placed on each unit so far in this batch
	overlays  []batchView         // units with extra folded in
	views     []affinity.UnitView // views[i] is &overlays[i]: a pointer in the interface, not a copy
	anchorIDs []graph.VertexID    // every task's anchors, flat
	anchors   [][]graph.VertexID  // anchors[i] sub-slices anchorIDs
	matrix    affinity.Matrix
	arcs      []auction.Arc   // every row's arcs, flat
	rows      [][]auction.Arc // rows[i] sub-slices arcs
	expl      []Explain       // where Assign lets the placement detail fall

	// Stats are atomic so a concurrent observer (obs registry scrape)
	// can read them while the dispatcher is scheduling.
	rounds        atomic.Int64
	auctioned     atomic.Int64
	fellBack      atomic.Int64
	emptyRowTasks atomic.Int64
	bidRounds     atomic.Int64
	bids          atomic.Int64

	// Balance-affinity tradeoff telemetry: affinityEligible counts
	// tasks that had at least one affinitive unit, affinityHits the
	// subset placed on their highest-benefit unit — the affinity hit
	// ratio is hits/eligible. winMargin digests how decisively each
	// auction winner beat its runner-up arc (micro-benefit units); a
	// collapsing margin under load means the auction is trading
	// affinity away for balance.
	affinityEligible atomic.Int64
	affinityHits     atomic.Int64
	winMargin        *obs.Histogram
}

// NewAuction builds the SCH scheduler.
func NewAuction(scorer *affinity.Scorer, cfg AuctionConfig) (*Auction, error) {
	if scorer == nil {
		return nil, fmt.Errorf("sched: scorer is required")
	}
	if cfg.NumUnits <= 0 {
		return nil, fmt.Errorf("sched: NumUnits = %d, want > 0", cfg.NumUnits)
	}
	auc, err := auction.NewAuctioneer(auction.AuctioneerConfig{
		NumCols: cfg.NumUnits,
		Options: auction.Options{Epsilon: cfg.Epsilon},
	})
	if err != nil {
		return nil, err
	}
	name := "sch"
	if !cfg.WorkloadAware {
		name = "affinity-only"
	}
	p := cfg.NumUnits
	a := &Auction{
		scorer: scorer, auctioneer: auc, cfg: cfg, name: name, winMargin: obs.NewHistogram(),
		extra:     make([]int, p),
		overlays:  make([]batchView, p),
		views:     make([]affinity.UnitView, p),
		anchorIDs: make([]graph.VertexID, 0, 2*p), // a task has at most two
		anchors:   make([][]graph.VertexID, 0, p),
		rows:      make([][]auction.Arc, p),
	}
	for i := range a.views {
		a.views[i] = &a.overlays[i]
	}
	return a, nil
}

// Name implements Scheduler.
func (a *Auction) Name() string { return a.name }

// Explain describes how one task of a batch was placed: the
// obs.Placement both executors copy into the task's trace span, plus
// the margin the scheduler's own telemetry digests.
type Explain struct {
	obs.Placement
	// WinMargin is how far the chosen arc's benefit exceeded the
	// task's best alternative arc, for tasks the auction placed with
	// at least two arcs to choose from; 0 otherwise. Negative margins
	// (the auction preferring a cheaper unit because of prices) are
	// reported as observed.
	WinMargin float64
}

// Explainer is a Scheduler that can report per-task placement detail.
type Explainer interface {
	Scheduler
	// AssignExplained is Assign plus one Explain per task.
	AssignExplained(tasks []*Task, units []UnitState) ([]int, []Explain)
}

var _ Explainer = (*Auction)(nil)

// Assign implements Scheduler: AssignExplained with the detail written
// to scratch and dropped.
func (a *Auction) Assign(tasks []*Task, units []UnitState) []int {
	a.expl = slices.Grow(a.expl[:0], len(tasks))[:len(tasks)]
	clear(a.expl)
	return a.assign(tasks, units, a.expl)
}

// AssignExplained implements Explainer.
func (a *Auction) AssignExplained(tasks []*Task, units []UnitState) ([]int, []Explain) {
	expl := make([]Explain, len(tasks))
	return a.assign(tasks, units, expl), expl
}

// assign places tasks segment by segment, describing each in the
// zeroed expl.
func (a *Auction) assign(tasks []*Task, units []UnitState, expl []Explain) []int {
	validateBatch(units)
	if len(units) != a.cfg.NumUnits {
		panic(fmt.Sprintf("sched: %d units, auction scheduler built for %d", len(units), a.cfg.NumUnits))
	}
	out := make([]int, len(tasks))
	clear(a.extra)

	for lo := 0; lo < len(tasks); lo += len(units) {
		hi := min(lo+len(units), len(tasks))
		a.assignSegment(tasks[lo:hi], units, out[lo:hi], expl[lo:hi])
	}
	return out
}

// assignSegment auctions one segment of at most P tasks.
func (a *Auction) assignSegment(tasks []*Task, units []UnitState, out []int, expl []Explain) {
	a.rounds.Add(1)
	extra, views := a.extra, a.views

	// Views that fold in the tasks already placed in this batch, so
	// Eq. 4's w_p reflects in-flight placements.
	for i, u := range units {
		a.overlays[i] = batchView{UnitState: u, extra: extra[i]}
	}

	anchorIDs, anchors := a.anchorIDs[:0], a.anchors[:0]
	for _, t := range tasks {
		lo := len(anchorIDs)
		anchorIDs = appendAnchors(anchorIDs, t)
		anchors = append(anchors, anchorIDs[lo:len(anchorIDs):len(anchorIDs)])
	}

	matrix := &a.matrix
	a.scorer.BuildAnchorsInto(matrix, anchors, views)

	if a.cfg.ColdScore > 0 {
		a.addColdArcs(matrix, units, extra, views)
	}

	numArcs := 0
	for _, row := range matrix.Rows {
		numArcs += len(row)
	}
	arcs := slices.Grow(a.arcs[:0], numArcs) // no append below moves it
	a.arcs = arcs
	problem := auction.Problem{NumCols: len(units), Rows: a.rows[:len(tasks)]}
	for i, row := range matrix.Rows {
		if len(row) == 0 {
			problem.Rows[i] = nil
			continue
		}
		lo := len(arcs)
		for _, e := range row {
			benefit := e.Benefit
			if !a.cfg.WorkloadAware {
				// Ablation: undo Eq. 4 by restoring the raw decayed
				// score (the Build weighting divides by w_p + ε̃).
				benefit = e.Benefit * (float64(views[e.Unit].QueueLen()) + a.scorer.Config().EpsilonTilde)
			}
			arcs = append(arcs, auction.Arc{Col: e.Unit, Benefit: benefit})
		}
		problem.Rows[i] = arcs[lo:len(arcs):len(arcs)]
	}

	assignment, err := a.auctioneer.Assign(problem)
	if err != nil {
		// Cannot happen: the problem is built with matching NumCols
		// and finite benefits. Fall back to balance-only placement.
		for i := range tasks {
			pick := leastLoadedIndex(units, extra)
			out[i] = pick
			extra[pick]++
		}
		return
	}
	a.bidRounds.Add(int64(assignment.Rounds))
	a.bids.Add(assignment.Bids)

	for i := range tasks {
		expl[i].AuctionRounds = assignment.Rounds
		unit := assignment.RowToCol[i]
		switch {
		case unit >= 0:
			a.auctioned.Add(1)
			// Win margin: how decisively the chosen arc beat the
			// task's best alternative, on the same benefits the
			// auction compared.
			if arcs := problem.Rows[i]; len(arcs) >= 2 {
				var chosen, bestOther float64
				bestOther = math.Inf(-1)
				for _, e := range arcs {
					if e.Col == unit {
						chosen = e.Benefit
					} else if e.Benefit > bestOther {
						bestOther = e.Benefit
					}
				}
				margin := chosen - bestOther
				expl[i].WinMargin = margin
				// Digest in micro-benefit units; the histogram clamps
				// negative observations to zero.
				a.winMargin.Observe(int64(margin * 1e6))
			}
		case len(matrix.Rows[i]) > 0:
			// The auction assigns at most one task per unit per
			// segment; a task that lost its unit to a same-affinity
			// sibling should still follow its data (the sibling will
			// have warmed exactly the records it needs), so it queues
			// on its best unit rather than scattering to the
			// least-loaded one. "Best" is judged on the same benefits
			// the auction compared — problem.Rows, where the
			// affinity-only ablation has already undone the Eq. 4
			// queue weighting. Picking from the workload-weighted
			// matrix row here would leak balance information into the
			// ablation.
			arcs := problem.Rows[i]
			best := arcs[0]
			for _, e := range arcs[1:] {
				if e.Benefit > best.Benefit {
					best = e
				}
			}
			unit = best.Col
			a.fellBack.Add(1)
			expl[i].FellBack = true
		default:
			unit = leastLoadedIndex(units, extra)
			a.emptyRowTasks.Add(1)
			expl[i].EmptyRow = true
		}
		for _, e := range matrix.Rows[i] {
			if e.Unit == unit {
				expl[i].Affinity = e.Benefit
				break
			}
		}
		// Affinity hit accounting: a task with any affinitive unit
		// either landed on its highest-benefit arc (a hit) or was
		// traded away for balance. Judged on problem.Rows so the
		// ablation's un-weighted benefits are compared consistently.
		if arcs := problem.Rows[i]; len(arcs) > 0 {
			a.affinityEligible.Add(1)
			best := arcs[0]
			for _, e := range arcs[1:] {
				if e.Benefit > best.Benefit {
					best = e
				}
			}
			if unit == best.Col {
				a.affinityHits.Add(1)
				expl[i].Preferred = true
			}
		}
		out[i] = unit
		extra[unit]++
	}
}

// addColdArcs appends the cold-start escape arc (see
// AuctionConfig.ColdScore) to every non-empty row that does not
// already reach the least-loaded unit.
func (a *Auction) addColdArcs(matrix *affinity.Matrix, units []UnitState, extra []int, views []affinity.UnitView) {
	cold := leastLoadedIndex(units, extra)
	benefit := a.cfg.ColdScore / (float64(views[cold].QueueLen()) + a.scorer.Config().EpsilonTilde)
	for i, row := range matrix.Rows {
		if len(row) == 0 {
			continue // empty rows already fall back to least-loaded
		}
		present := false
		for _, e := range row {
			if e.Unit == cold {
				present = true
				break
			}
		}
		if !present {
			matrix.Rows[i] = append(row, affinity.Entry{Unit: cold, Benefit: benefit})
		}
	}
}

// batchView overlays in-batch placements on a live unit view.
type batchView struct {
	UnitState
	extra int
}

func (b batchView) QueueLen() int { return b.UnitState.QueueLen() + b.extra }

// Stats reports scheduler activity: auction rounds run, tasks placed
// by the auction, contended tasks that followed their best-affinity
// unit after losing the auction, and affinity-less tasks placed on the
// least-loaded unit.
func (a *Auction) Stats() (rounds int, auctioned, followedAffinity, emptyRows int64) {
	return int(a.rounds.Load()), a.auctioned.Load(), a.fellBack.Load(), a.emptyRowTasks.Load()
}

// Register exposes the scheduler's counters on an obs registry:
// segment rounds, placements by category, and the auction's internal
// bidding rounds and bids (the ε-convergence cost of Algorithm 1).
func (a *Auction) Register(reg *obs.Registry) {
	reg.CounterFunc("subtrav_sched_rounds_total",
		"Auction scheduling segments run.", a.rounds.Load)
	reg.CounterFunc("subtrav_sched_auctioned_total",
		"Tasks placed directly by the auction.", a.auctioned.Load)
	reg.CounterFunc("subtrav_sched_followed_affinity_total",
		"Tasks that lost their auction and followed their best-affinity unit.", a.fellBack.Load)
	reg.CounterFunc("subtrav_sched_empty_row_total",
		"Tasks with no affinitive unit, placed least-loaded.", a.emptyRowTasks.Load)
	reg.CounterFunc("subtrav_sched_auction_bid_rounds_total",
		"Bidding rounds executed across all auctions.", a.bidRounds.Load)
	reg.CounterFunc("subtrav_sched_auction_bids_total",
		"Individual bids placed across all auctions.", a.bids.Load)
	reg.CounterFunc("subtrav_sched_affinity_eligible_total",
		"Tasks that had at least one affinitive unit when placed.", a.affinityEligible.Load)
	reg.CounterFunc("subtrav_sched_affinity_hits_total",
		"Tasks placed on their highest-benefit (signature-preferred) unit.", a.affinityHits.Load)
	reg.GaugeFunc("subtrav_sched_affinity_hit_ratio",
		"Affinity hits over eligible tasks since start: 1.0 = pure affinity placement, falling toward 0 as the scheduler trades affinity for balance.",
		func() float64 {
			eligible := a.affinityEligible.Load()
			if eligible == 0 {
				return 0
			}
			return float64(a.affinityHits.Load()) / float64(eligible)
		})
	reg.RegisterHistogram("subtrav_sched_auction_win_margin_micro",
		"Benefit margin between each auction winner's arc and its best alternative, in micro-benefit units.", a.winMargin)
}

// AffinityStats reports the affinity-hit telemetry directly: eligible
// tasks (non-empty affinity row) and the subset placed on their
// highest-benefit unit.
func (a *Auction) AffinityStats() (eligible, hits int64) {
	return a.affinityEligible.Load(), a.affinityHits.Load()
}
