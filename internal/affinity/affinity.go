// Package affinity implements the subgraph-to-processor affinity
// scoring of Section IV: the structural score from visit signatures
// (Eq. 1) and its exponential time decay driven by memory pressure
// (Eq. 2-3), thresholded by η into the sparse score matrix the auction
// scheduler consumes. The package holds the evidence only: dividing a
// score by its unit's load (Eq. 4) is the scheduler's decision, priced
// once in sched.Auction.
package affinity

import (
	"fmt"
	"math"
	"sync"

	"subtrav/internal/graph"
	"subtrav/internal/signature"
)

// UnitView is the scheduler's read-only view of one processing unit,
// supplying the quantities of Eq. 3.
type UnitView interface {
	// QueueLen is the number of subgraph tasks queued but not yet
	// executed on the unit — n_p of Eq. 3 (and the w_p the scheduler
	// prices Eq. 4 with).
	QueueLen() int
	// CompletedSince returns how many subgraph traversals the unit
	// has finished since virtual time t — n'_{t,t_p} of Eq. 3.
	CompletedSince(t int64) int
	// MemoryBudget is the unit's buffer capacity M in bytes; values
	// <= 0 mean unlimited (α becomes 0: cached data never expires).
	MemoryBudget() int64
}

// Config parameterizes the scorer.
type Config struct {
	// Eta is the threshold η: a bipartite edge (G, p) exists only when
	// the decayed affinity score s exceeds it.
	Eta float64
	// AvgSubgraphBytes is m of Eq. 3: the average memory footprint of
	// one buffered subgraph.
	AvgSubgraphBytes int64
}

// DefaultConfig returns scorer parameters tuned for the simulator's
// cost model: scores in (0,1], mild thresholding, churn-true decay.
func DefaultConfig() Config {
	return Config{
		Eta:              0.01,
		AvgSubgraphBytes: 256 << 10, // typical bounded-traversal footprint
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Eta < 0:
		return fmt.Errorf("affinity: Eta = %g, want >= 0", c.Eta)
	case c.AvgSubgraphBytes <= 0:
		return fmt.Errorf("affinity: AvgSubgraphBytes = %d, want > 0", c.AvgSubgraphBytes)
	}
	return nil
}

// Scorer evaluates subgraph-processor affinities against a graph, its
// visit-signature table and a clock. Safe for concurrent use (the
// signature table is internally synchronized, the scratch pool hands
// each concurrent round its own buffers; the rest is read-only).
type Scorer struct {
	g     *graph.Graph
	sigs  *signature.Table
	clock signature.Clock
	cfg   Config

	// scratch pools per-round snapshot caches and scoring buffers so
	// steady-state BuildAnchors rounds allocate O(1) (see snapshot.go).
	scratch sync.Pool
}

// NewScorer builds a scorer; the config must validate.
func NewScorer(g *graph.Graph, sigs *signature.Table, clock signature.Clock, cfg Config) (*Scorer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if g == nil || sigs == nil || clock == nil {
		return nil, fmt.Errorf("affinity: graph, signature table and clock are required")
	}
	s := &Scorer{g: g, sigs: sigs, clock: clock, cfg: cfg}
	s.scratch.New = func() any { return newRoundScratch(g.NumVertices()) }
	return s, nil
}

// Structural computes s'_{v→p} of Eq. 1: the fraction of {v} ∪ Γ(v)
// recently visited by processor proc.
func (s *Scorer) Structural(v graph.VertexID, proc int32) float64 {
	score, _ := s.structuralAndLatest(v, proc)
	return score
}

// structuralAndLatest returns Eq. 1 together with t_p — the most
// recent time proc touched any counted vertex. When v itself was
// visited by proc, its own timestamp is used (the paper's t_p);
// otherwise the freshest neighbor visit stands in.
func (s *Scorer) structuralAndLatest(v graph.VertexID, proc int32) (float64, int64) {
	hits := 0
	var latest int64 = math.MinInt64
	if t, ok := s.sigs.LatestByProc(v, proc); ok {
		hits++
		latest = t
	}
	neighbors := s.g.Neighbors(v)
	for _, u := range neighbors {
		if t, ok := s.sigs.LatestByProc(u, proc); ok {
			hits++
			if t > latest {
				latest = t
			}
		}
	}
	if hits == 0 {
		return 0, 0
	}
	return float64(hits) / float64(1+len(neighbors)), latest
}

// Score computes s_{v→p} of Eq. 2: the structural score decayed by
// the unit's memory churn since the data was cached.
func (s *Scorer) Score(v graph.VertexID, proc int32, unit UnitView) float64 {
	structural, latest := s.structuralAndLatest(v, proc)
	if structural == 0 {
		return 0
	}
	return structural * s.decay(latest, unit)
}

// decay evaluates the negative exponential of Eq. 2 with the
// memory-pressure exponent of Eq. 3. The paper's Eq. 2 decays scores
// by e^(-α(t-t_p)) with α from Eq. 3, but leaves the time unit of α
// unstated; taken literally against any fixed timescale, the decay
// either never fires or kills every score once task durations drift.
// The exponent is therefore the *churn fraction itself* —
//
//	decay = exp(-(n_p + n')·m / M)
//
// — which tracks exactly what the unit's LRU buffer does: after the
// unit has loaded ≈M bytes of other subgraphs, the cached data is gone
// regardless of how much wall time that took. Elapsed time still
// matters implicitly because n' grows with it.
func (s *Scorer) decay(tp int64, unit UnitView) float64 {
	m := unit.MemoryBudget()
	if m <= 0 {
		return 1 // unlimited memory: cached data never expires
	}
	if s.clock.Now() <= tp {
		return 1
	}
	churned := unit.QueueLen() + unit.CompletedSince(tp)
	if churned == 0 {
		return 1
	}
	exponent := float64(churned) * float64(s.cfg.AvgSubgraphBytes) / float64(m)
	return math.Exp(-exponent)
}

// Entry is one admissible unit for a task row. Benefit is the task's
// decayed Eq. 2-3 score s on that unit, unweighted by load: the
// scheduler prices it by w_p (Eq. 4).
type Entry struct {
	Unit    int
	Benefit float64
}

// Matrix is the sparse affinity evidence of one scheduling round:
// Rows[i] lists the units whose decayed score for task i exceeded η,
// with that score.
type Matrix struct {
	NumUnits int
	Rows     [][]Entry

	// arena is the one backing array BuildAnchors' rows sub-slice,
	// kept so BuildAnchorsInto can build the next round into it.
	arena []Entry
}

// BuildAnchorsReference is the executable specification of
// BuildAnchors: the straightforward per-(vertex, unit) formulation
// that scores every pair independently through ScoreAnchors, paying
// one signature-list scan per pair. BuildAnchors produces an
// identical Matrix from per-round vertex snapshots at a fraction of
// the cost; the differential tests hold the two paths against each
// other, and TestBuildAnchorsLockBudget pins the ≥P× lock reduction.
// Use BuildAnchors everywhere else.
func (s *Scorer) BuildAnchorsReference(anchors [][]graph.VertexID, units []UnitView) Matrix {
	m := Matrix{NumUnits: len(units), Rows: make([][]Entry, len(anchors))}
	for i, vs := range anchors {
		var row []Entry
		for p, unit := range units {
			score := s.ScoreAnchors(vs, int32(p), unit)
			if score <= s.cfg.Eta {
				continue
			}
			row = append(row, Entry{Unit: p, Benefit: score})
		}
		m.Rows[i] = row
	}
	return m
}

// ScoreAnchors returns the best Eq. 2 score over a set of anchor
// vertices.
func (s *Scorer) ScoreAnchors(vs []graph.VertexID, proc int32, unit UnitView) float64 {
	best := 0.0
	for _, v := range vs {
		if score := s.Score(v, proc, unit); score > best {
			best = score
		}
	}
	return best
}
