package experiments

import (
	"fmt"

	"subtrav"
	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
	"subtrav/internal/sched"
	"subtrav/internal/sim"
	"subtrav/internal/workload"
)

// Config parameterizes the experiment suite. The zero value is not
// usable; start from Default() or Quick().
type Config struct {
	// Seed drives every stochastic component.
	Seed uint64
	// Scale sizes the Twitter-like and random graphs.
	Scale subtrav.Scale
	// UnitsSweep lists the processing-unit counts of Figures 8 and 10.
	UnitsSweep []int
	// Queries is the stream length for BFS/SSSP runs; image runs use
	// the corpus's held-out query set size.
	Queries int
	// MemoryPerUnit is the per-unit buffer budget for metadata graphs
	// (Figure 8/10/11); Figure 9 sweeps around it.
	MemoryPerUnit int64
	// ImageMemoryPerUnit is the per-unit budget for the image corpus,
	// whose records are photos, not metadata.
	ImageMemoryPerUnit int64
	// BFSDepth / BFSMaxVisits / SSSPBound / RWRSteps / RWRRestart
	// parameterize the three applications.
	BFSDepth      int
	BFSMaxVisits  int
	SSSPBound     int
	SSSPMaxVisits int
	RWRSteps      int
	RWRRestart    float64
	// SmallCorpus selects the reduced image corpus (tests).
	SmallCorpus bool
	// Locality shapes the query streams.
	Locality workload.Locality
	// Cost is the virtual-time cost model shared by all runs.
	Cost sim.CostModel

	// observe, when set, is shown every scheduler once its run is over
	// (tests read their counters).
	observe func(sched.Scheduler)
}

// Default returns the full experiment configuration used to produce
// EXPERIMENTS.md: units 1..64 as in the paper, a scaled-down graph,
// per-unit memory far below the working set.
func Default() Config {
	return Config{
		Seed:               42,
		Scale:              subtrav.ScaleSmall,
		UnitsSweep:         []int{1, 2, 4, 8, 16, 32, 64},
		Queries:            3000,
		MemoryPerUnit:      2 << 20,  // ≈15% of the metadata working set
		ImageMemoryPerUnit: 64 << 20, // ≈6 person-clusters of a ~3 GB corpus
		BFSDepth:           2,
		BFSMaxVisits:       100,
		SSSPBound:          4,
		SSSPMaxVisits:      200,
		RWRSteps:           400,
		RWRRestart:         0.2,
		Locality:           workload.DefaultLocality(),
		Cost:               sim.DefaultCostModel(),
	}
}

// Quick returns a reduced configuration for tests and smoke runs.
func Quick() Config {
	c := Default()
	c.Scale = subtrav.ScaleTiny
	c.UnitsSweep = []int{1, 2, 4}
	c.Queries = 300
	c.MemoryPerUnit = 256 << 10
	// The reduced corpus has 48 person-clusters of ≈2 MiB; 32 MiB per
	// unit lets the 4-unit sweep hold its affinity share.
	c.ImageMemoryPerUnit = 32 << 20
	c.RWRSteps = 150
	c.SmallCorpus = true
	// Cheap disk keeps test wall time low without changing the
	// hit/miss cost asymmetry.
	c.Cost.Disk.SeekNanos = 200_000
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.UnitsSweep) == 0 {
		return fmt.Errorf("experiments: empty units sweep")
	}
	for _, u := range c.UnitsSweep {
		if u <= 0 {
			return fmt.Errorf("experiments: unit count %d", u)
		}
	}
	if c.Queries <= 0 {
		return fmt.Errorf("experiments: Queries = %d", c.Queries)
	}
	return nil
}

// maxUnits returns the largest swept unit count (the paper uses it for
// Figures 9, 11, 12 detail).
func (c Config) maxUnits() int {
	max := c.UnitsSweep[0]
	for _, u := range c.UnitsSweep {
		if u > max {
			max = u
		}
	}
	return max
}

// app identifies one of the paper's three applications.
type app struct {
	name string
	// build returns the graph (or corpus graph) and the task stream.
	build func(c Config) (*graph.Graph, []*sched.Task, error)
	// memory returns the per-unit budget for this app.
	memory func(c Config) int64
}

func bfsApp() app {
	return app{
		name: "BFS",
		build: func(c Config) (*graph.Graph, []*sched.Task, error) {
			g, err := subtrav.TwitterLike(c.Scale, c.Seed)
			if err != nil {
				return nil, nil, err
			}
			tasks, err := workload.BFS(g, c.stream(c.Seed+1), c.BFSDepth, c.BFSMaxVisits)
			return g, tasks, err
		},
		memory: func(c Config) int64 { return c.MemoryPerUnit },
	}
}

func ssspApp() app {
	return app{
		name: "SSSP",
		build: func(c Config) (*graph.Graph, []*sched.Task, error) {
			g, err := subtrav.TwitterLike(c.Scale, c.Seed)
			if err != nil {
				return nil, nil, err
			}
			tasks, err := workload.SSSP(g, c.stream(c.Seed+2), c.SSSPBound, c.SSSPMaxVisits)
			return g, tasks, err
		},
		memory: func(c Config) int64 { return c.MemoryPerUnit },
	}
}

func imageApp() app {
	return app{
		name: "ImageSearch",
		build: func(c Config) (*graph.Graph, []*sched.Task, error) {
			corpus, err := c.corpus()
			if err != nil {
				return nil, nil, err
			}
			n := len(corpus.Queries)
			if c.Queries < n {
				n = c.Queries
			}
			tasks, err := workload.ImageSearch(corpus, workload.StreamConfig{
				NumQueries: n, Seed: c.Seed + 3,
			}, c.RWRSteps, c.RWRRestart, 10)
			return corpus.Graph, tasks, err
		},
		memory: func(c Config) int64 { return c.ImageMemoryPerUnit },
	}
}

func (c Config) corpus() (*graphgen.ImageCorpus, error) {
	if c.SmallCorpus {
		return subtrav.SmallImageCorpus(c.Seed)
	}
	return subtrav.ImageCorpus(c.Seed)
}

func (c Config) stream(seed uint64) workload.StreamConfig {
	return workload.StreamConfig{NumQueries: c.Queries, Seed: seed, Locality: c.Locality}
}

// runOn measures one (graph, tasks, units, memory, policy) cell.
func (c Config) runOn(g *graph.Graph, tasks []*sched.Task, units int, memory int64, policy subtrav.Policy) (sim.Result, error) {
	return c.runOnOpts(g, tasks, policy, subtrav.Options{
		Units:         units,
		MemoryPerUnit: memory,
	})
}

// runOnOpts is runOn with caller-controlled system options (cost model
// and seed are always taken from the experiment config).
func (c Config) runOnOpts(g *graph.Graph, tasks []*sched.Task, policy subtrav.Policy, opts subtrav.Options) (sim.Result, error) {
	opts.Cost = c.Cost
	opts.SchedulerSeed = c.Seed + 99
	sys, err := subtrav.NewSystem(g, opts)
	if err != nil {
		return sim.Result{}, err
	}
	s, err := sys.NewScheduler(policy)
	if err != nil {
		return sim.Result{}, err
	}
	res, err := sys.Cluster().Run(s, tasks)
	if c.observe != nil {
		c.observe(s)
	}
	return res, err
}
