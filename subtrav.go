// Package subtrav is a reproduction of "Towards Balance-Affinity
// Tradeoff in Concurrent Subgraph Traversals" (Xia, Nai, Lai; IPPS
// 2015): an auction-based scheduler that places concurrent local
// subgraph traversals onto processing units of a shared-disk platform,
// trading off data-locality affinity against workload balance.
//
// The package is a facade over the internal subsystems:
//
//   - internal/graph, internal/graphgen — property graphs and the
//     synthetic evaluation datasets;
//   - internal/traverse — the traversal engines (bounded BFS, bounded
//     bidirectional SSSP, collaborative filtering, random walk with
//     restart);
//   - internal/signature, internal/affinity — vertex visit signatures
//     and the affinity scoring of Eq. 1-3;
//   - internal/auction — the sequential auction assignment solver and
//     its incremental, warm-started form;
//   - internal/sched — the SCH scheduler (which prices affinity by
//     load, Eq. 4), the paper's baseline, and ablation policies;
//   - internal/sim — the deterministic shared-disk simulator;
//   - internal/live, internal/service — a goroutine runtime and a TCP
//     query service for live deployments.
//
// A minimal session:
//
//	g, _ := subtrav.TwitterLike(subtrav.ScaleSmall, 42)
//	sys, _ := subtrav.NewSystem(g, subtrav.Options{Units: 8, MemoryPerUnit: 64 << 20})
//	tasks, _ := workload.BFS(g, workload.StreamConfig{NumQueries: 1000, Seed: 1,
//	    Locality: workload.DefaultLocality()}, 2, 0)
//	res, _ := sys.Run(subtrav.PolicyAuction, tasks)
//	fmt.Println(res)
package subtrav

import (
	"fmt"

	"subtrav/internal/affinity"
	"subtrav/internal/graph"
	"subtrav/internal/sched"
	"subtrav/internal/sim"
)

// Policy names a scheduling policy.
type Policy string

const (
	// PolicyAuction is the paper's proposed scheduler (SCH): the
	// Figure 6 pipeline of visit signatures, affinity scores priced by
	// queue length (Eq. 4) and incremental auction.
	PolicyAuction Policy = "sch"
	// PolicyBaseline is the paper's comparison system: random unit
	// selection with FCFS queues.
	PolicyBaseline Policy = "baseline"
	// PolicyAffinityOnly is the ablation that bids the raw affinity
	// scores, without Eq. 4's division by queue length (pure locality).
	PolicyAffinityOnly Policy = "affinity-only"
	// PolicyLeastLoaded is the ablation that drops affinity (pure
	// balance: join the shortest queue).
	PolicyLeastLoaded Policy = "least-loaded"
	// PolicyRoundRobin ignores both affinity and load.
	PolicyRoundRobin Policy = "round-robin"
)

// Policies lists every available policy.
func Policies() []Policy {
	return []Policy{PolicyAuction, PolicyBaseline, PolicyAffinityOnly, PolicyLeastLoaded, PolicyRoundRobin}
}

// Options configures a System.
type Options struct {
	// Units is the processing-unit count P (required).
	Units int
	// MemoryPerUnit is each unit's buffer budget in bytes; <= 0 means
	// unlimited.
	MemoryPerUnit int64
	// Cost overrides the virtual-time cost model (zero value: sim
	// defaults).
	Cost sim.CostModel
	// Affinity overrides the scoring parameters (zero value:
	// affinity defaults).
	Affinity affinity.Config
	// SchedulerSeed seeds stochastic policies (the baseline's RNG).
	SchedulerSeed uint64
	// ColdScore enables the auction scheduler's cold-start escape arc
	// (see sched.AuctionConfig.ColdScore); 0 keeps the paper-faithful
	// behaviour.
	ColdScore float64
	// SpeedFactors optionally degrades individual units (see
	// sim.Config.SpeedFactors).
	SpeedFactors []float64
	// SignatureCap bounds each vertex's visit-signature list L(v)
	// (0: the paper's default of 10).
	SignatureCap int
}

// System is a configured simulated deployment: one graph, P units, a
// shared disk, and the signature/affinity machinery. Each Run resets
// the cluster, so results of repeated runs are independent and
// deterministic.
type System struct {
	g    *graph.Graph
	opts Options
	clu  *sim.Cluster
}

// NewSystem builds a system over the graph.
func NewSystem(g *graph.Graph, opts Options) (*System, error) {
	if g == nil {
		return nil, fmt.Errorf("subtrav: graph is required")
	}
	cfg := sim.Config{
		NumUnits:      opts.Units,
		MemoryPerUnit: opts.MemoryPerUnit,
		Cost:          opts.Cost,
		SpeedFactors:  opts.SpeedFactors,
		SignatureCap:  opts.SignatureCap,
	}
	clu, err := sim.NewCluster(g, cfg)
	if err != nil {
		return nil, err
	}
	return &System{g: g, opts: opts, clu: clu}, nil
}

// Graph returns the system's graph.
func (s *System) Graph() *graph.Graph { return s.g }

// Units returns P.
func (s *System) Units() int { return s.clu.NumUnits() }

// Cluster exposes the underlying simulator for advanced callers (e.g.
// to set an OnComplete hook before Run).
func (s *System) Cluster() *sim.Cluster { return s.clu }

// NewScheduler constructs a fresh scheduler instance for the policy,
// wired to this system's signature table and clock. SCH and
// affinity-only are one auction, with and without Eq. 4's queue
// weighting; both bid at auction.DefaultEpsilon.
func (s *System) NewScheduler(policy Policy) (sched.Scheduler, error) {
	switch policy {
	case PolicyBaseline:
		return sched.NewBaseline(s.opts.SchedulerSeed), nil
	case PolicyRoundRobin:
		return sched.NewRoundRobin(), nil
	case PolicyLeastLoaded:
		return sched.NewLeastLoaded(), nil
	case PolicyAuction, PolicyAffinityOnly:
		affCfg := s.opts.Affinity
		if affCfg == (affinity.Config{}) {
			affCfg = affinity.DefaultConfig()
		}
		scorer, err := affinity.NewScorer(s.g, s.clu.Signatures(), s.clu.Clock(), affCfg)
		if err != nil {
			return nil, err
		}
		return sched.NewAuction(scorer, sched.AuctionConfig{
			NumUnits:      s.clu.NumUnits(),
			WorkloadAware: policy == PolicyAuction,
			ColdScore:     s.opts.ColdScore,
		})
	default:
		return nil, fmt.Errorf("subtrav: unknown policy %q", policy)
	}
}

// Run resets the cluster and executes the task stream under the given
// policy, returning the run's measurements.
func (s *System) Run(policy Policy, tasks []*sched.Task) (sim.Result, error) {
	s.clu.Reset()
	scheduler, err := s.NewScheduler(policy)
	if err != nil {
		return sim.Result{}, err
	}
	return s.clu.Run(scheduler, tasks)
}
