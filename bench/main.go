// Command subtrav-e2e is the repository's benchmark (see BENCHMARK.json and
// README.md beside this file). One invocation runs one workload for one seed:
// it builds the inputs from the seed, stands up the production composition
// in-process, drives it in closed loops, checks every reply it can against an
// oracle, prints each metric by name with its unit, and prints the result
// object as the last line of standard output. Layers are measured from
// outside: by timing calls into their public functions and by reading what
// the runtime already exposes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"subtrav"
	"subtrav/internal/loadgen"
)

// spec is one workload. The graph seed is fixed (graphSeed) so sizes never
// move; everything else that is random comes from --seed.
type spec struct {
	name  string
	scale subtrav.Scale
	sim   bool // virtual-time simulator instead of the serving stack

	units      int
	memPerUnit int64
	timeScale  float64 // live.Config.TimeScale; 0 = the runtime's default

	mix                    loadgen.OpMix
	zipf                   float64
	bfsDepth, bfsMaxVisits int

	listLen int // queries in the cyclic query list (service) / BFS tasks (sim)
	replayN int // queries pushed through the per-layer replays; tasks in the model stream
}

const graphSeed = 42

var specs = []spec{
	{
		name: "svc-hot", scale: subtrav.ScaleSmall,
		units: 4, memPerUnit: 64 << 20,
		mix: loadgen.OpMix{BFS: 0.55, SSSP: 0.2, RWR: 0.25}, zipf: 1.1, bfsDepth: 2, bfsMaxVisits: 300,
		listLen: 16384, replayN: 2048,
	},
	{
		name: "svc-scan", scale: subtrav.ScaleMedium,
		units: 4, memPerUnit: 1 << 20, timeScale: 1e-12,
		mix: loadgen.OpMix{BFS: 0.7, Collab: 0.3}, bfsDepth: 3, bfsMaxVisits: 5000,
		listLen: 4096, replayN: 256,
	},
	{
		name: "sim-replay", scale: subtrav.ScaleSmall, sim: true,
		units: 8, memPerUnit: 4 << 20, bfsDepth: 2, bfsMaxVisits: 300,
		listLen: 8000, replayN: 2048,
	},
}

// metricDef names one declared metric. The two lists below are the contract
// BENCHMARK.json repeats; manifest_test.go holds them equal.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"qps", "1/s"}, {"lat_p50_ms", "ms"}, {"cpu_us_per_query", "us"},
	{"allocs_per_query", "count"}, {"heap_mb", "MiB"}, {"virt_qps", "1/s"},
}

var perLayer = []metricDef{
	{"graphio.load_ms", "ms"}, {"graphio.mmap_open_ms", "ms"}, {"graphio.snapshot_mb", "MiB"},
	{"service.wire_us", "us"}, {"service.light_wire_us", "us"}, {"service.inproc_gap_us", "us"}, {"service.sat_lat_p50_ms", "ms"},
	{"service.sat_lat_p99_ms", "ms"}, {"service.light_lat_p99_ms", "ms"},
	{"live.admit_to_sched_us", "us"}, {"live.queue_wait_us", "us"}, {"live.exec_us", "us"},
	{"live.charge_us", "us"}, {"live.resolve_us", "us"},
	{"live.inproc_qps", "1/s"}, {"live.gomaxprocs1_qps", "1/s"},
	{"live.rejected", "count"}, {"live.timed_out", "count"}, {"live.degraded_rounds", "count"},
	{"live.budget_residual_pct", "%"},
	{"sched.round_us", "us"}, {"sched.tasks_per_round", "count"}, {"sched.imbalance_mean", "ratio"},
	{"affinity.hit_ratio", "ratio"}, {"auction.bid_rounds_per_round", "count"},
	{"sched.assign_us_per_task", "us"}, {"affinity.build_us_per_round", "us"}, {"auction.solve_us_per_round", "us"},
	{"signature.record_ns", "ns"}, {"signature.locks_per_round", "count"},
	{"traverse.kernel_us_per_query", "us"}, {"traverse.kernel_ns_per_access", "ns"},
	{"traverse.accesses_per_query", "count"}, {"traverse.kernel_allocs_per_query", "count"},
	{"traverse.bfs_us", "us"}, {"traverse.sssp_us", "us"}, {"traverse.collab_us", "us"}, {"traverse.rwr_us", "us"},
	{"traverse.batch16_us_per_query", "us"}, {"traverse.pull_wave_share", "ratio"},
	{"cache.hit_rate", "ratio"}, {"cache.evictions_per_query", "count"},
	{"cache.access_ns", "ns"}, {"cache.allocs_per_miss", "count"},
	{"storage.reads_per_query", "count"}, {"storage.bytes_per_query", "B"},
	{"storage.disk_wait_us", "us"}, {"storage.virtual_read_ns", "ns"},
	{"live.smallbuf_qps", "1/s"}, {"cache.smallbuf_hit_rate", "ratio"},
	{"storage.smallbuf_reads_per_query", "count"}, {"storage.smallbuf_fetch_us", "us"},
	{"sim.accesses_per_s", "1/s"}, {"sim.hit_rate", "ratio"}, {"sim.disk_reads", "count"}, {"sim.imbalance", "ratio"},
	{"sim.sssp_virt_qps", "1/s"}, {"sim.baseline_virt_qps", "1/s"}, {"sim.sched_share", "ratio"},
	{"obs.trace_overhead_pct", "%"},
}

// run is the state of one invocation.
type run struct {
	spec    spec
	seconds float64
	traced  bool
	outDir  string
	out     io.Writer // metric lines and the result line

	in            *inputs
	next          atomic.Int64 // list position, shared by all phases: a run walks the list on, never restarting it
	metrics       map[string]float64
	spans         []traceSpan
	tracedQueries int // queries whose spans are in spans, capped at maxTraceQueries

	attempted int64 // operations checked; a failed one ends the run, so a printed result has none
}

// set records a metric value; the last write wins.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// part returns the share of --seconds a phase gets: phases are sized in
// 26ths because the tracked run is 26 s (2 warm + 16 sat + 8 light).
func (r *run) part(n float64) time.Duration {
	return time.Duration(r.seconds * n / 26 * float64(time.Second))
}

func main() {
	var (
		workload = flag.String("workload", "", "svc-hot, svc-scan or sim-replay")
		seed     = flag.Uint64("seed", 1, "seeds ops, keys, targets and walks; the graph seed is fixed")
		seconds  = flag.Float64("seconds", 26, "how long the run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and bench/out/trace-<workload>.json")
		smoke    = flag.Bool("smoke", false, "tiny graph, short lists, every reply checked (smoke_test.go)")
		outDir   = flag.String("out", "bench/out", "directory for the snapshot and the trace file")
	)
	flag.Parse()
	if err := execute(os.Stdout, *workload, *seed, *seconds, *trace == 1, *smoke, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "subtrav-e2e:", err)
		os.Exit(1)
	}
}

// execute runs one invocation and prints the metric lines and the result
// line; on any error nothing that parses as a result has been printed.
func execute(out io.Writer, workload string, seed uint64, seconds float64, traced, smoke bool, outDir string) error {
	r := &run{out: out, seconds: seconds, traced: traced, outDir: outDir, metrics: map[string]float64{}}
	for _, s := range specs {
		if s.name == workload {
			r.spec = s
		}
	}
	if r.spec.name == "" {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds %g, want > 0", seconds)
	}
	if smoke {
		r.spec.scale = subtrav.ScaleTiny
		r.spec.listLen, r.spec.replayN = 512, 128
	}
	began := time.Now()
	in, err := buildInputs(r.spec, seed, smoke, outDir)
	if err != nil {
		return err
	}
	defer os.Remove(in.path)
	r.in = in
	fmt.Fprintf(r.out, "# %s seed=%d seconds=%g trace=%t gomaxprocs=%d inputs=%.2fs\n",
		workload, seed, seconds, traced, runtime.GOMAXPROCS(0), time.Since(began).Seconds())

	switch {
	case r.spec.sim && traced:
		err = r.simTraced()
	case r.spec.sim:
		err = r.simEndToEnd()
	case traced:
		err = r.serviceTraced()
	default:
		err = r.serviceEndToEnd()
	}
	if err != nil {
		return err
	}
	if traced {
		if err := r.writeTrace(); err != nil {
			return err
		}
	}
	return r.emit(began)
}

// emit prints every declared metric of the run's mode and the result line.
// A per-layer metric the workload has no path through reads 0; an end-to-end
// metric must have been measured.
func (r *run) emit(began time.Time) error {
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: r.attempted, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!r.traced && (!ok || v == 0)) {
			return fmt.Errorf("metric %s = %v (measured: %t)", d.name, v, ok)
		}
		fmt.Fprintf(r.out, "%-34s %16.4f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = value{v, d.unit}
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	fmt.Fprintf(r.out, "# wall %.2fs\n", time.Since(began).Seconds())
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(r.out, string(line))
	return nil
}
