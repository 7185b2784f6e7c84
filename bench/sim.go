package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"subtrav"
	"subtrav/internal/graph"
	"subtrav/internal/graphio"
	"subtrav/internal/sched"
	"subtrav/internal/sim"
)

// simSystem loads the snapshot and builds the simulated deployment; the
// pair is sim-replay's stand-up.
func (r *run) simSystem() (*subtrav.System, time.Duration, error) {
	t0 := time.Now()
	g, err := graphio.ReadGraphFile(r.in.path)
	if err != nil {
		return nil, 0, err
	}
	sys, err := subtrav.NewSystem(g, subtrav.Options{Units: r.spec.units, MemoryPerUnit: r.spec.memPerUnit})
	return sys, time.Since(t0), err
}

// simRun puts one task stream through the simulator and applies its oracle:
// every task completed, and the per-unit counts add up to that.
func (r *run) simRun(sys *subtrav.System, policy subtrav.Policy, stream string, tasks []*sched.Task) (sim.Result, time.Duration, error) {
	t0 := time.Now()
	res, err := sys.Run(policy, tasks)
	wall := time.Since(t0)
	if err != nil {
		return res, wall, err
	}
	var perUnit int64
	for _, n := range res.TasksPerUnit {
		perUnit += n
	}
	if res.Completed != int64(len(tasks)) || perUnit != res.Completed {
		return res, wall, fmt.Errorf("sim %s %s: %d tasks, %d completed, %d summed over units", stream, policy, len(tasks), res.Completed, perUnit)
	}
	r.attempted += int64(len(tasks))
	r.span("sim."+stream+"."+string(policy), "", -1, t0.UnixNano(), t0.Add(wall).UnixNano())
	return res, wall, nil
}

// simEndToEnd is sim-replay's --trace 0 run: repetitions (the BFS stream,
// then the SSSP stream, under PolicyAuction) until --seconds is spent, at
// least three, every one identical to the first.
func (r *run) simEndToEnd() error {
	var setups []float64
	var sys *subtrav.System
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		s, d, err := r.simSystem()
		if err != nil {
			return err
		}
		sys, setups = s, append(setups, d.Seconds())
	}
	var (
		walls []float64
		first [2]sim.Result
		err   error
	)
	began, cpu0 := time.Now(), cpuNanos()
	_, mallocs := timed(func() {
		for len(walls) < 3 || time.Since(began).Seconds()+walls[len(walls)-1] <= r.seconds {
			var rep [2]sim.Result
			var wb, ws time.Duration
			if rep[0], wb, err = r.simRun(sys, subtrav.PolicyAuction, "bfs", r.in.bfs); err != nil {
				return
			}
			if rep[1], ws, err = r.simRun(sys, subtrav.PolicyAuction, "sssp", r.in.sssp); err != nil {
				return
			}
			if len(walls) == 0 {
				first = rep
			} else if !reflect.DeepEqual(first, rep) {
				err = fmt.Errorf("repetition %d differs from the first:\n%+v\n%+v", len(walls), rep, first)
				return
			}
			walls = append(walls, (wb + ws).Seconds())
		}
	})
	if err != nil {
		return err
	}
	cpu := cpuNanos() - cpu0
	tasks := float64(len(r.in.bfs) + len(r.in.sssp))
	done := tasks * float64(len(walls))
	fmt.Fprintf(r.out, "# %d repetitions, wall q1/median/q3 = %.3f/%.3f/%.3f s\n# %v\n# %v\n", len(walls),
		quantile(walls, 0.25), quantile(walls, 0.5), quantile(walls, 0.75), first[0], first[1])
	r.set("setup_s", quantile(setups, 0.5))
	r.set("qps", tasks/quantile(walls, 0.5))
	r.set("lat_p50_ms", float64(first[0].Latency.P50)/1e6)
	r.set("cpu_us_per_query", float64(cpu)/1e3/done)
	r.set("allocs_per_query", mallocs/done)
	r.set("heap_mb", heapMiB())
	runtime.KeepAlive(sys) // the reading is taken with the system still up
	r.set("virt_qps", first[0].ThroughputPerSec)
	return nil
}

// simTraced is sim-replay's --trace 1 run: the BFS stream once per policy,
// the SSSP stream once, then the same layer replays the service workloads get.
func (r *run) simTraced() error {
	sys, load, err := r.simSystem()
	if err != nil {
		return err
	}
	if _, err := r.model(sys, r.in.bfs); err != nil {
		return err
	}
	sssp, _, err := r.simRun(sys, subtrav.PolicyAuction, "sssp", r.in.sssp)
	if err != nil {
		return err
	}
	r.set("sim.sssp_virt_qps", sssp.ThroughputPerSec)
	if _, err := r.replay(sys.Graph()); err != nil {
		return err
	}
	return r.graphioMetrics(load)
}

// modelRun puts a service workload's model stream through the simulator on
// the workload's own units and buffers: the paper's y-axis for the kind of
// stream the stack was just driven with.
func (r *run) modelRun(g *graph.Graph) (sim.Result, error) {
	sys, err := subtrav.NewSystem(g, subtrav.Options{Units: r.spec.units, MemoryPerUnit: r.spec.memPerUnit})
	if err != nil {
		return sim.Result{}, err
	}
	tasks := make([]*sched.Task, len(r.in.model))
	for i, q := range r.in.model {
		tasks[i] = &sched.Task{ID: int64(i), Query: q}
	}
	if r.traced {
		return r.model(sys, tasks)
	}
	res, _, err := r.simRun(sys, subtrav.PolicyAuction, "model", tasks)
	return res, err
}

// model runs one stream under the paper's scheduler and under its baseline,
// files the sim layer's metrics and returns the scheduler's result.
func (r *run) model(sys *subtrav.System, tasks []*sched.Task) (sim.Result, error) {
	a, wallA, err := r.simRun(sys, subtrav.PolicyAuction, "stream", tasks)
	if err != nil {
		return a, err
	}
	b, wallB, err := r.simRun(sys, subtrav.PolicyBaseline, "stream", tasks)
	if err != nil {
		return a, err
	}
	r.set("sim.accesses_per_s", float64(a.CacheHits+a.CacheMisses)/wallA.Seconds())
	r.set("sim.hit_rate", a.HitRate)
	r.set("sim.disk_reads", float64(a.Disk.Requests))
	r.set("sim.imbalance", a.Imbalance)
	r.set("sim.baseline_virt_qps", b.ThroughputPerSec)
	r.set("sim.sched_share", 1-wallB.Seconds()/wallA.Seconds())
	return a, nil
}
