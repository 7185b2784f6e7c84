package experiments

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"subtrav"
	"subtrav/internal/affinity"
	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
	"subtrav/internal/sched"
	"subtrav/internal/signature"
	"subtrav/internal/sim"
	"subtrav/internal/workload"
)

// A workloadKey names a workload: a graph plus a task stream.
type workloadKey struct {
	app string // "BFS", "SSSP" or "ImageSearch" (which runs on the image corpus)
	// random selects the degree-balanced random graph over the
	// Twitter-like one.
	random bool
	seed   uint64  // the stream's seed, as an offset from Config.Seed
	skew   float64 // the stream's hotspot skew (workload.Locality.HotspotSkew)
	rate   float64 // Poisson arrivals per second (0: every query at t = 0)
}

// The paper's three applications on their Figure 8 streams.
var (
	bfs   = workloadKey{app: "BFS", seed: 1}
	sssp  = workloadKey{app: "SSSP", seed: 2}
	image = workloadKey{app: "ImageSearch", seed: 3}
	apps  = []workloadKey{bfs, sssp, image}
)

// A cell is one simulation: a workload on units processing units with
// memory bytes of buffer each (0: unlimited), under a policy and an
// option variant. Each variant field's zero value is the paper's
// setting.
type cell struct {
	w      workloadKey
	units  int
	memory int64
	policy subtrav.Policy

	cold   float64         // the auction's cold-start escape arc (sched.AuctionConfig.ColdScore)
	slow   int             // the first slow units run 4x slower
	sigCap int             // the L(v) capacity (0: signature.DefaultCapacity)
	aff    affinity.Config // the scorer's parameters (zero: affinity.DefaultConfig)
	// layout is the same-partition seek multiplier
	// (storage.DiskConfig.PartitionLocality); the disk applies it only
	// inside (0, 1), so 0 and 1 both mean a layout-oblivious disk.
	layout float64
}

// with returns c under policy p.
func (c cell) with(p subtrav.Policy) cell {
	c.policy = p
	return c
}

// canon spells every variant field that names the paper's setting as
// its zero value, so each distinct simulation has one memo key.
func (c cell) canon() cell {
	if c.sigCap == signature.DefaultCapacity {
		c.sigCap = 0
	}
	if c.aff == affinity.DefaultConfig() {
		c.aff = affinity.Config{}
	}
	if c.layout == 1 {
		c.layout = 0
	}
	return c
}

// A Grid runs the experiments' simulations. It builds each workload
// once and simulates each cell at most once, so tables that share
// cells are views over one set of results. The cells a call is
// missing run on GOMAXPROCS workers, each with its own System and
// scheduler over the shared, read-only graph and task stream. A cell
// is deterministic, so no table depends on which worker ran what.
// A Grid is not safe for concurrent use: run one study at a time.
type Grid struct {
	cfg     Config
	twitter *graph.Graph
	random  *graph.Graph
	corpus  *graphgen.ImageCorpus
	streams map[workloadKey]stream
	done    map[cell]sim.Result
	// observed calls cfg.observe one cell at a time.
	observed sync.Mutex
}

// NewGrid returns an empty grid over a valid configuration.
func NewGrid(cfg Config) (*Grid, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Grid{cfg: cfg, streams: map[workloadKey]stream{}, done: map[cell]sim.Result{}}, nil
}

// at returns w's cell on units processing units at w's configured
// buffer budget.
func (g *Grid) at(w workloadKey, units int) cell {
	return cell{w: w, units: units, memory: g.cfg.memory(w)}
}

// results reads a cell's result.
type results func(cell) sim.Result

// view builds a study's output from the cells it reads. It calls build
// twice: first to learn which cells it reads (each read returns a zero
// Result), then, once the missing ones have run, to build the output
// from their results. So build must read the same cells both times.
func view[T any](g *Grid, build func(results) T) (T, error) {
	var cells []cell
	build(func(c cell) sim.Result {
		cells = append(cells, c)
		return sim.Result{}
	})
	if err := g.run(cells); err != nil {
		var zero T
		return zero, err
	}
	return build(func(c cell) sim.Result {
		res, ok := g.done[c.canon()]
		if !ok {
			panic("experiments: a view read a cell its first pass did not")
		}
		return res
	}), nil
}

// run simulates the cells the grid has not run yet. The first failing
// cell, in the order given, fails the call.
func (g *Grid) run(cells []cell) error {
	var missing []cell
	for _, c := range cells {
		c = c.canon()
		if _, ok := g.done[c]; !ok && !slices.Contains(missing, c) {
			if err := g.workload(c.w); err != nil {
				return err
			}
			missing = append(missing, c)
		}
	}
	res := make([]sim.Result, len(missing))
	errs := make([]error, len(missing))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(missing)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(missing); i = int(next.Add(1) - 1) {
				res[i], errs[i] = g.simulate(missing[i])
			}
		}()
	}
	wg.Wait()
	for i, c := range missing {
		if errs[i] != nil {
			return errs[i]
		}
		g.done[c] = res[i]
	}
	return nil
}

// simulate runs one cell on a fresh System. Workers call it
// concurrently, so it only reads the grid's workloads.
func (g *Grid) simulate(c cell) (sim.Result, error) {
	w := g.streams[c.w]
	var speeds []float64
	if c.slow > 0 {
		speeds = make([]float64, c.units)
		for i := range speeds {
			speeds[i] = 1
			if i < c.slow {
				speeds[i] = 4
			}
		}
	}
	cost := g.cfg.Cost
	cost.Disk.PartitionLocality = c.layout
	sys, err := subtrav.NewSystem(w.g, subtrav.Options{
		Units:         c.units,
		MemoryPerUnit: c.memory,
		Cost:          cost,
		Affinity:      c.aff,
		SchedulerSeed: g.cfg.Seed + 99,
		ColdScore:     c.cold,
		SpeedFactors:  speeds,
		SignatureCap:  c.sigCap,
	})
	if err != nil {
		return sim.Result{}, err
	}
	s, err := sys.NewScheduler(c.policy)
	if err != nil {
		return sim.Result{}, err
	}
	res, err := sys.Cluster().Run(s, w.tasks)
	if g.cfg.observe != nil {
		g.observed.Lock()
		g.cfg.observe(s)
		g.observed.Unlock()
	}
	return res, err
}

// A stream is a built workload.
type stream struct {
	g     *graph.Graph
	tasks []*sched.Task
}

// workload builds w's graph and task stream the first time it is asked
// for.
func (g *Grid) workload(w workloadKey) error {
	if _, ok := g.streams[w]; ok {
		return nil
	}
	gr, err := g.graph(w)
	if err != nil {
		return err
	}
	cfg := g.cfg
	sc := workload.StreamConfig{NumQueries: cfg.Queries, Seed: cfg.Seed + w.seed, RatePerSec: w.rate, Locality: cfg.Locality}
	sc.Locality.HotspotSkew = w.skew
	if w.rate > 0 {
		sc.Arrival = workload.Poisson
	}
	var tasks []*sched.Task
	switch w.app {
	case bfs.app:
		tasks, err = workload.BFS(gr, sc, cfg.BFSDepth, cfg.BFSMaxVisits)
	case sssp.app:
		tasks, err = workload.SSSP(gr, sc, cfg.SSSPBound, cfg.SSSPMaxVisits)
	default:
		sc.NumQueries = min(sc.NumQueries, len(g.corpus.Queries))
		tasks, err = workload.ImageSearch(g.corpus, sc, cfg.RWRSteps, cfg.RWRRestart, 10)
	}
	if err != nil {
		return err
	}
	g.streams[w] = stream{gr, tasks}
	return nil
}

// graph returns w's graph, building it the first time it is asked for.
func (g *Grid) graph(w workloadKey) (*graph.Graph, error) {
	cfg := g.cfg
	var err error
	switch {
	case w.app == image.app:
		if g.corpus == nil {
			build := subtrav.ImageCorpus
			if cfg.SmallCorpus {
				build = subtrav.SmallImageCorpus
			}
			if g.corpus, err = build(cfg.Seed); err != nil {
				return nil, err
			}
		}
		return g.corpus.Graph, nil
	case w.random:
		if g.random == nil {
			g.random, err = subtrav.RandomGraph(cfg.Scale, cfg.Seed)
		}
		return g.random, err
	default:
		if g.twitter == nil {
			g.twitter, err = subtrav.TwitterLike(cfg.Scale, cfg.Seed)
		}
		return g.twitter, err
	}
}

// A Study is one experiment of subtrav-bench.
type Study struct {
	Name string
	Run  func(*Grid) ([]*Table, error)
}

// Studies are the experiments, in the order subtrav-bench's "all"
// runs them.
var Studies = []Study{
	{"fig8", Fig8},
	{"fig9", Fig9},
	{"fig10", func(g *Grid) ([]*Table, error) { return one(Fig10(g)) }},
	{"fig11", func(g *Grid) ([]*Table, error) { return one(Fig11(g)) }},
	{"fig12", func(g *Grid) ([]*Table, error) { return one(Fig12(g)) }},
	{"ablation", Ablation},
	{"epsilon", func(g *Grid) ([]*Table, error) { return one(EpsilonSweep(g.cfg.Seed, 64)) }},
	{"warmstart", func(g *Grid) ([]*Table, error) { return one(WarmStartStudy(g.cfg.Seed, 48, 8)) }},
	{"share", func(g *Grid) ([]*Table, error) { return one(Share(g)) }},
	{"latency", func(g *Grid) ([]*Table, error) { return one(LatencyUnderLoad(g)) }},
	{"heterogeneous", func(g *Grid) ([]*Table, error) { return one(Heterogeneous(g)) }},
	{"layout", func(g *Grid) ([]*Table, error) { return one(PartitionedLayout(g)) }},
	{"signature", func(g *Grid) ([]*Table, error) { return one(SignatureCapacity(g)) }},
	{"eta", func(g *Grid) ([]*Table, error) { return one(EtaThreshold(g)) }},
}

// one adapts a single-table study to Study.Run.
func one(t *Table, err error) ([]*Table, error) { return []*Table{t}, err }
