package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"subtrav/internal/affinity"
	"subtrav/internal/graph"
	"subtrav/internal/graphio"
	"subtrav/internal/live"
	"subtrav/internal/metrics"
	"subtrav/internal/service"
	"subtrav/internal/traverse"
)

// conns is the number of pipelined connections every service phase holds;
// callers × conns is the in-flight bound (at most 16 against a MaxPending of
// 2·4·64 = 512, so admission control never has a reason to refuse).
const conns = 2

// stack is the production composition, in-process: snapshot file → graph →
// live runtime (auction scheduler) → TCP server on loopback → clients.
type stack struct {
	g       *graph.Graph
	rt      *live.Runtime
	srv     *service.Server
	clients []*service.Client

	loadDur, setupDur time.Duration // graphio.ReadGraphFile alone; the whole stand-up (a setup_s sample)
}

// traceSpans is the TraceBuffer of a traced stack: more spans than any
// traced phase completes queries, so the ring never wraps inside one.
const traceSpans = 1 << 17

// standUp builds the stack as cmd/subtrav-service and cmd/subtrav-load wire it.
func (r *run) standUp(memPerUnit int64, traceBuffer int) (*stack, error) {
	t0 := time.Now()
	g, err := graphio.ReadGraphFile(r.in.path)
	if err != nil {
		return nil, err
	}
	st := &stack{g: g, loadDur: time.Since(t0)}
	st.rt, err = live.NewAuction(g, live.Config{
		NumUnits: r.spec.units, MemoryPerUnit: memPerUnit, TimeScale: r.spec.timeScale, TraceBuffer: traceBuffer,
	}, affinity.DefaultConfig(), 1e-3)
	if err != nil {
		return nil, err
	}
	if st.srv, err = service.NewServer(st.rt); err != nil {
		st.close()
		return nil, err
	}
	addr, err := st.srv.Listen("127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	for i := 0; i < conns; i++ {
		c, err := service.Dial(addr.String())
		if err != nil {
			st.close()
			return nil, err
		}
		st.clients = append(st.clients, c)
	}
	st.setupDur = time.Since(t0)
	return st, nil
}

// close tears the stack down in dependency order and checks conservation:
// submitted = completed + rejected + timed-out, and nothing but completions.
func (st *stack) close() error {
	for _, c := range st.clients {
		c.Close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	if err := st.rt.Close(); err != nil {
		return err
	}
	if m := st.rt.Metrics(); !m.Conserved() || m.Rejected+m.TimedOut+m.Failed != 0 {
		return fmt.Errorf("lifecycle counters at teardown: %v", m)
	}
	return nil
}

// tcp sends query i over the caller's connection, as a pooled web tier would.
func (st *stack) tcp(in *inputs) doFunc {
	return func(caller, i int) (traverse.Result, service.Reply, error) {
		reply, err := st.clients[caller%conns].Do(in.wire[i])
		return resultOf(reply), reply, err
	}
}

// inproc submits query i straight to the runtime: the same load minus the
// service layer.
func (st *stack) inproc(in *inputs) doFunc {
	return func(_, i int) (traverse.Result, service.Reply, error) {
		resp, err := st.rt.DoCtx(context.Background(), in.query[i])
		if err == nil {
			err = resp.Err
		}
		return resp.Result, service.Reply{}, err
	}
}

type doFunc func(caller, i int) (traverse.Result, service.Reply, error)

// sample is one completed call of a phase.
type sample struct {
	sent, lat, end int64 // unix nanos at send; latency; completion offset from phase start
	unit           int32
	waitNs, execNs int64 // Reply.WaitNanos / ExecNanos (0 in-process)
}

// phase is what one closed-loop phase measured.
type phase struct {
	name     string
	start    time.Time
	samples  []sample // OK replies only
	cpuNs    int64    // process CPU time over the phase (load generator included)
	mallocs  uint64
	sliceQPS []float64 // completions per second in each slice of the phase
}

// drive runs one closed-loop phase: callers goroutines that each send the
// list's next query, wait for the reply, check it against the oracle when
// there is one, and go again until dur has passed. No caller sends on a
// schedule. The first failed operation ends the run.
func (r *run) drive(name string, callers int, dur time.Duration, do doFunc) (*phase, error) {
	p := &phase{name: name}
	per := make([][]sample, callers)
	for c := range per {
		per[c] = make([]sample, 0, 1<<12)
	}
	var (
		wg       sync.WaitGroup
		failOnce sync.Once
		failure  error
		stop     atomic.Bool
		ms       runtime.MemStats
	)
	runtime.ReadMemStats(&ms)
	mallocs0, cpu0 := ms.Mallocs, cpuNanos()
	p.start = time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(p.start) < dur && !stop.Load() {
				i := int(r.next.Add(1)-1) % len(r.in.query)
				t0 := time.Now()
				got, reply, err := do(c, i)
				t1 := time.Now()
				if err == nil && r.in.oracle[i] != nil {
					err = sameResult(*r.in.oracle[i], got)
				}
				if err != nil {
					failOnce.Do(func() { failure = fmt.Errorf("%s: query %d %+v: %w", name, i, r.in.wire[i], err) })
					stop.Store(true)
					return
				}
				per[c] = append(per[c], sample{
					sent: t0.UnixNano(), lat: int64(t1.Sub(t0)), end: int64(t1.Sub(p.start)),
					unit: reply.Unit, waitNs: reply.WaitNanos, execNs: reply.ExecNanos,
				})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(p.start)
	p.cpuNs = cpuNanos() - cpu0
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - mallocs0
	if failure != nil {
		return nil, failure
	}
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	r.attempted += int64(len(p.samples))

	// Cut the phase into slices by completion time; the phase's rate is
	// the median slice's, so one stall of the box costs one slice.
	slice := 500 * time.Millisecond
	if dur < 4*slice {
		slice = dur / 4
	}
	p.sliceQPS = make([]float64, int(dur/slice))
	for _, s := range p.samples {
		if k := int(s.end / int64(slice)); k < len(p.sliceQPS) {
			p.sliceQPS[k] += 1 / slice.Seconds()
		}
	}
	r.span(name, "", -1, p.start.UnixNano(), p.start.Add(wall).UnixNano())
	fmt.Fprintf(r.out, "# phase %-12s callers=%-2d ok=%-7d qps(median slice)=%-9.1f slices q1/q3=%.1f/%.1f lat p50=%.3fms p99=%.3fms\n",
		name, callers, len(p.samples), p.qps(), quantile(p.sliceQPS, 0.25), quantile(p.sliceQPS, 0.75),
		p.latQuantile(0.5)/1e6, p.latQuantile(0.99)/1e6)
	return p, nil
}

func (p *phase) qps() float64 { return quantile(p.sliceQPS, 0.5) }

func (p *phase) latencies() []int64 {
	lat := make([]int64, len(p.samples))
	for i, s := range p.samples {
		lat[i] = s.lat
	}
	return lat
}

// latQuantile returns a latency quantile of the phase in nanoseconds.
func (p *phase) latQuantile(q float64) float64 { return float64(metrics.Quantile(p.latencies(), q)) }

// meanLat returns the phase's mean latency in nanoseconds.
func (p *phase) meanLat() float64 { return metrics.Mean(p.latencies()) }

// quantile returns the q-quantile of v (nearest rank on a sorted copy), 0
// for an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

// cpuNanos is the process's user + system CPU time so far.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapMiB is the live heap after two forced collections (the second empties
// what the first moved to sync.Pool victim caches, so the reading does not
// depend on when the last background cycle ran).
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timed runs fn and returns its wall time in nanoseconds and the heap
// allocations it made.
func timed(fn func()) (ns, allocs float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0, t0 := ms.Mallocs, time.Now()
	fn()
	ns = float64(time.Since(t0))
	runtime.ReadMemStats(&ms)
	return ns, float64(ms.Mallocs - m0)
}
