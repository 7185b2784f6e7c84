package sched

import (
	"fmt"

	"subtrav/internal/affinity"
	"subtrav/internal/auction"
)

// Hierarchical is the distributed-style scheduler sketched in the
// paper's future work ("distributed scheduling schemes for other
// enterprise level big data platforms"): the P units are split into G
// groups (racks / nodes), a cheap front-end routes each task to a
// group by aggregate affinity and group load, and each group runs its
// own incremental auction over only its units. No global price list
// exists — the limitation the paper notes in shared-price parallel
// auctions — so the scheme shards cleanly across machines.
type HierarchicalConfig struct {
	// NumUnits is the total processing-unit count P.
	NumUnits int
	// NumGroups is G; units are split contiguously into groups of
	// ⌈P/G⌉. Must satisfy 1 <= G <= P.
	NumGroups int
	// Epsilon is the per-group auction increment.
	Epsilon float64
}

// Hierarchical implements Scheduler.
type Hierarchical struct {
	scorer *affinity.Scorer
	cfg    HierarchicalConfig
	// groups[g] lists the unit indices of group g.
	groups      [][]int
	auctioneers []*auction.Auctioneer

	routedByAffinity int64
	routedByLoad     int64
}

// NewHierarchical builds the two-level scheduler.
func NewHierarchical(scorer *affinity.Scorer, cfg HierarchicalConfig) (*Hierarchical, error) {
	if scorer == nil {
		return nil, fmt.Errorf("sched: scorer is required")
	}
	if cfg.NumUnits <= 0 {
		return nil, fmt.Errorf("sched: NumUnits = %d, want > 0", cfg.NumUnits)
	}
	if cfg.NumGroups < 1 || cfg.NumGroups > cfg.NumUnits {
		return nil, fmt.Errorf("sched: NumGroups = %d, want in [1,%d]", cfg.NumGroups, cfg.NumUnits)
	}
	h := &Hierarchical{scorer: scorer, cfg: cfg}
	per := (cfg.NumUnits + cfg.NumGroups - 1) / cfg.NumGroups
	for lo := 0; lo < cfg.NumUnits; lo += per {
		hi := lo + per
		if hi > cfg.NumUnits {
			hi = cfg.NumUnits
		}
		group := make([]int, 0, hi-lo)
		for u := lo; u < hi; u++ {
			group = append(group, u)
		}
		h.groups = append(h.groups, group)
		auc, err := auction.NewAuctioneer(auction.AuctioneerConfig{
			NumCols: len(group),
			Options: auction.Options{Epsilon: cfg.Epsilon},
		})
		if err != nil {
			return nil, err
		}
		h.auctioneers = append(h.auctioneers, auc)
	}
	return h, nil
}

// Name implements Scheduler.
func (h *Hierarchical) Name() string { return "hierarchical" }

// RoutingStats reports how many tasks the front-end routed by affinity
// versus by load alone.
func (h *Hierarchical) RoutingStats() (byAffinity, byLoad int64) {
	return h.routedByAffinity, h.routedByLoad
}

// Assign implements Scheduler: level 1 routes tasks to groups, level 2
// auctions each group's tasks over its units.
func (h *Hierarchical) Assign(tasks []*Task, units []UnitState) []int {
	validateBatch(units)
	if len(units) != h.cfg.NumUnits {
		panic(fmt.Sprintf("sched: %d units, hierarchical scheduler built for %d", len(units), h.cfg.NumUnits))
	}
	out := make([]int, len(tasks))
	extra := make([]int, len(units))

	// Level 1: group routing. A group's attraction for a task is its
	// best unit-level workload-weighted affinity; groups with zero
	// attraction compete on load alone.
	grouped := make([][]*Task, len(h.groups))
	groupedIdx := make([][]int, len(h.groups))
	for i, task := range tasks {
		anchors := appendAnchors(nil, task)
		bestGroup, bestScore := -1, 0.0
		for g, members := range h.groups {
			for _, u := range members {
				score := h.scorer.WeightedAnchors(anchors, int32(u), batchView{UnitState: units[u], extra: extra[u]})
				if score > bestScore {
					bestScore = score
					bestGroup = g
				}
			}
		}
		if bestGroup < 0 {
			bestGroup = h.leastLoadedGroup(units, extra)
			h.routedByLoad++
		} else {
			h.routedByAffinity++
		}
		grouped[bestGroup] = append(grouped[bestGroup], task)
		groupedIdx[bestGroup] = append(groupedIdx[bestGroup], i)
		// Reserve one slot of anticipated load on the group's least
		// loaded unit so level-1 routing sees its own placements.
		extra[h.groups[bestGroup][0]]++
	}
	// Undo the coarse reservations; level 2 recomputes real ones.
	for i := range extra {
		extra[i] = 0
	}

	// Level 2: per-group auctions, segmented to the group size.
	for g, groupTasks := range grouped {
		if len(groupTasks) == 0 {
			continue
		}
		members := h.groups[g]
		for lo := 0; lo < len(groupTasks); lo += len(members) {
			hi := lo + len(members)
			if hi > len(groupTasks) {
				hi = len(groupTasks)
			}
			h.assignGroupSegment(g, groupTasks[lo:hi], groupedIdx[g][lo:hi], units, extra, out)
		}
	}
	return out
}

func (h *Hierarchical) assignGroupSegment(g int, tasks []*Task, idx []int, units []UnitState, extra []int, out []int) {
	members := h.groups[g]
	problem := auction.Problem{NumCols: len(members), Rows: make([][]auction.Arc, len(tasks))}
	rows := make([][]affinity.Entry, len(tasks))
	for i, task := range tasks {
		anchors := appendAnchors(nil, task)
		var row []affinity.Entry
		for local, u := range members {
			view := batchView{UnitState: units[u], extra: extra[u]}
			score := h.scorer.ScoreAnchors(anchors, int32(u), view)
			if score > h.scorer.Config().Eta {
				row = append(row, affinity.Entry{
					Unit:    local,
					Benefit: score / (float64(view.QueueLen()) + h.scorer.Config().EpsilonTilde),
				})
			}
		}
		rows[i] = row
		arcs := make([]auction.Arc, len(row))
		for k, e := range row {
			arcs[k] = auction.Arc{Col: e.Unit, Benefit: e.Benefit}
		}
		problem.Rows[i] = arcs
	}
	assignment, err := h.auctioneers[g].Assign(problem)
	if err != nil {
		assignment = auction.Assignment{RowToCol: make([]int, len(tasks))}
		for i := range assignment.RowToCol {
			assignment.RowToCol[i] = -1
		}
	}
	for i := range tasks {
		var unit int
		switch local := assignment.RowToCol[i]; {
		case local >= 0:
			unit = members[local]
		case len(rows[i]) > 0:
			best := rows[i][0]
			for _, e := range rows[i][1:] {
				if e.Benefit > best.Benefit {
					best = e
				}
			}
			unit = members[best.Unit]
		default:
			unit = h.leastLoadedIn(members, units, extra)
		}
		out[idx[i]] = unit
		extra[unit]++
	}
}

func (h *Hierarchical) leastLoadedGroup(units []UnitState, extra []int) int {
	best, bestLoad := 0, 1<<30
	for g, members := range h.groups {
		total := 0
		for _, u := range members {
			total += load(units[u], extra[u])
		}
		avg := total * 1000 / len(members)
		if avg < bestLoad {
			best, bestLoad = g, avg
		}
	}
	return best
}

func (h *Hierarchical) leastLoadedIn(members []int, units []UnitState, extra []int) int {
	best := members[0]
	bestLoad := load(units[best], extra[best])
	for _, u := range members[1:] {
		if l := load(units[u], extra[u]); l < bestLoad {
			best, bestLoad = u, l
		}
	}
	return best
}
