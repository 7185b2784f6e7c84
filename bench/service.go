package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"subtrav/internal/obs"
)

// Callers per connection in the two driven shapes: sat keeps 16 queries in
// flight (the saturated closed loop), light keeps 2 (a lone caller per
// connection, which is where latency is read).
const (
	satCallers   = 8 * conns
	lightCallers = 1 * conns
)

// setupRounds is how many times a run stands the stack up; setup_s is the
// median and the last stack is the one the phases use. Each stand-up starts
// from a collected heap, so none pays for its predecessor's garbage.
const setupRounds = 5

// standUpMedian stands the stack up setupRounds times and returns the last
// stack with the median stand-up time in seconds.
func (r *run) standUpMedian(traceBuffer int) (*stack, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		runtime.GC()
		st, err := r.standUp(r.spec.memPerUnit, traceBuffer)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, st.setupDur.Seconds())
		if i == setupRounds-1 {
			return st, quantile(times, 0.5), nil
		}
		if err := st.close(); err != nil {
			return nil, 0, err
		}
	}
}

// serviceEndToEnd is the --trace 0 run of a service workload:
// warm (untimed) → sat → light → heap reading → teardown → model run.
func (r *run) serviceEndToEnd() error {
	st, setup, err := r.standUpMedian(0)
	if err != nil {
		return err
	}
	if _, err := r.drive("warm", satCallers, r.part(2), st.tcp(r.in)); err != nil {
		return err
	}
	sat, err := r.drive("sat", satCallers, r.part(16), st.tcp(r.in))
	if err != nil {
		return err
	}
	heap := heapMiB()
	light, err := r.drive("light", lightCallers, r.part(8), st.tcp(r.in))
	if err != nil {
		return err
	}
	if err := st.close(); err != nil {
		return err
	}
	ok := float64(len(sat.samples))
	r.set("setup_s", setup)
	r.set("qps", sat.qps())
	r.set("lat_p50_ms", light.latQuantile(0.5)/1e6)
	r.set("cpu_us_per_query", float64(sat.cpuNs)/1e3/ok)
	r.set("allocs_per_query", float64(sat.mallocs)/ok)
	r.set("heap_mb", heap)
	fmt.Fprintf(r.out, "# light: %d samples, p99 %.3f ms; sat p50 %.3f ms p99 %.3f ms\n", len(light.samples),
		light.latQuantile(0.99)/1e6, sat.latQuantile(0.5)/1e6, sat.latQuantile(0.99)/1e6)
	model, err := r.modelRun(st.g)
	if err != nil {
		return err
	}
	r.set("virt_qps", model.ThroughputPerSec)
	return nil
}

// serviceTraced is the --trace 1 run: per-layer numbers only.
//
//	stack A (TraceBuffer 0): warm → sat → inproc
//	stack B (TraceBuffer holds every span): warm → sat-traced → light
//	replay: a fixed number of the workload's queries through the layers'
//	public functions, so exact counts repeat exactly
//	stack C (svc-hot only, 2 MiB buffers): warm → smallbuf
//	stack A again, under runtime.GOMAXPROCS(1): gomaxprocs1
func (r *run) serviceTraced() error {
	a, err := r.standUp(r.spec.memPerUnit, 0)
	if err != nil {
		return err
	}
	if _, err := r.drive("warm", satCallers, r.part(2), a.tcp(r.in)); err != nil {
		return err
	}
	sat, err := r.drive("sat", satCallers, r.part(5), a.tcp(r.in))
	if err != nil {
		return err
	}
	inproc, err := r.drive("inproc", satCallers, r.part(3), a.inproc(r.in))
	if err != nil {
		return err
	}
	r.set("service.sat_lat_p50_ms", sat.latQuantile(0.5)/1e6)
	r.set("service.sat_lat_p99_ms", sat.latQuantile(0.99)/1e6)
	r.set("service.inproc_gap_us", (sat.meanLat()-inproc.meanLat())/1e3)
	r.set("live.inproc_qps", inproc.qps())

	// Stack B: same load with span capture on. The registry is read
	// before and after the phase so its counters cover the phase alone.
	b, err := r.standUp(r.spec.memPerUnit, traceSpans)
	if err != nil {
		return err
	}
	if _, err := r.drive("warm-traced", satCallers, r.part(2), b.tcp(r.in)); err != nil {
		return err
	}
	before := scrape(b)
	traced, err := r.drive("sat-traced", satCallers, r.part(5), b.tcp(r.in))
	if err != nil {
		return err
	}
	after := scrape(b)
	spans := b.rt.Trace(traceSpans)
	light, err := r.drive("light", lightCallers, r.part(2), b.tcp(r.in))
	if err != nil {
		return err
	}
	lightSpans := b.rt.Trace(traceSpans)
	m := b.rt.Metrics()
	if err := b.close(); err != nil {
		return err
	}
	r.set("service.light_lat_p99_ms", light.latQuantile(0.99)/1e6)
	r.set("obs.trace_overhead_pct", 100*(sat.qps()-traced.qps())/sat.qps())
	r.set("live.rejected", float64(m.Rejected))
	r.set("live.timed_out", float64(m.TimedOut))
	r.set("live.degraded_rounds", float64(m.DegradedRounds))
	r.registryMetrics(before, after)

	kernel, err := r.replay(b.g)
	if err != nil {
		return err
	}
	bud := r.spanBudget(traced, spans, kernel)
	r.set("service.wire_us", bud.wire)
	r.set("service.light_wire_us", r.spanBudget(light, lightSpans, kernel).wire)
	r.set("live.admit_to_sched_us", bud.admit)
	r.set("live.queue_wait_us", bud.queue)
	r.set("live.exec_us", bud.exec)
	r.set("live.resolve_us", bud.resolve)
	r.set("live.charge_us", bud.exec-kernel-bud.diskWait-bud.resolve)
	r.set("live.budget_residual_pct", bud.residualPct())
	r.set("storage.reads_per_query", bud.misses)
	r.set("storage.bytes_per_query", bud.bytes)
	r.set("storage.disk_wait_us", bud.diskWait)
	if r.spec.name == "svc-hot" {
		if err := r.smallbuf(kernel); err != nil {
			return err
		}
	}

	// Last, because timers armed after GOMAXPROCS has been lowered and
	// raised again fire late on this toolchain (a cold stack stalled for
	// hundreds of milliseconds when this phase ran earlier): stack A has
	// stayed up, idle and warm, for it.
	prev := runtime.GOMAXPROCS(1)
	one, err := r.drive("gomaxprocs1", satCallers, r.part(3), a.tcp(r.in))
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	if err := a.close(); err != nil {
		return err
	}
	r.set("live.gomaxprocs1_qps", one.qps())
	if err := r.graphioMetrics(b.loadDur); err != nil {
		return err
	}
	_, err = r.modelRun(b.g)
	return err
}

// budget is a phase's mean client latency split by layer, in microseconds:
// lat = wire + admit + queue + exec, and exec = kernel + diskWait + charge +
// resolve.
type budget struct {
	lat, wire, admit, queue, exec, resolve, diskWait float64
	misses, bytes                                    float64 // per query
	matched, spans                                   int
}

// spanBudget joins a traced phase's client samples with the runtime's spans
// (a reply and its span carry the same unit, wait and exec readings) and
// splits the latency. wire is what the client saw beyond the span: encode,
// TCP, decode, the handler goroutine and every wake-up between them. It also
// files spans for the trace file until maxTraceQueries queries have them: the
// client's round trip is the root, the runtime's phases are its children, all
// on one clock (unix nanos).
func (r *run) spanBudget(p *phase, spans []obs.Span, kernel float64) budget {
	type key struct {
		unit       int32
		wait, exec int64
	}
	bySpan := make(map[key]*obs.Span, len(spans))
	var b budget
	for i := range spans {
		s := &spans[i]
		if s.SubmitNanos < p.start.UnixNano() || s.Outcome != obs.OutcomeCompleted {
			continue
		}
		b.spans++
		b.admit += float64(s.ScheduleNanos - s.SubmitNanos)
		b.queue += float64(s.StartNanos - s.ScheduleNanos)
		b.exec += float64(s.EndNanos - s.StartNanos)
		b.resolve += float64(s.EndNanos - s.StartNanos - s.ExecNanos)
		b.diskWait += float64(s.DiskWaitNanos)
		b.misses += float64(s.CacheMisses)
		b.bytes += float64(s.BytesRead)
		bySpan[key{s.Unit, s.WaitNanos, s.ExecNanos}] = s
	}
	for _, c := range p.samples {
		s := bySpan[key{c.unit, c.waitNs, c.execNs}]
		if s == nil {
			continue
		}
		b.matched++
		b.wire += float64(c.lat - (s.EndNanos - s.SubmitNanos))
		if r.tracedQueries < maxTraceQueries {
			r.tracedQueries++
			r.span("service.roundtrip", p.name, s.QueryID, c.sent, c.sent+c.lat)
			r.span("live.admit_to_sched", "service.roundtrip", s.QueryID, s.SubmitNanos, s.ScheduleNanos)
			r.span("live.queue_wait", "service.roundtrip", s.QueryID, s.ScheduleNanos, s.StartNanos)
			r.span("live.exec", "service.roundtrip", s.QueryID, s.StartNanos, s.EndNanos)
		}
	}
	n := 1e3 * float64(b.spans)
	b.lat, b.wire = p.meanLat()/1e3, ratio(b.wire, 1e3*float64(b.matched))
	b.admit, b.queue, b.exec, b.resolve, b.diskWait = ratio(b.admit, n), ratio(b.queue, n), ratio(b.exec, n), ratio(b.resolve, n), ratio(b.diskWait, n)
	b.misses, b.bytes = ratio(b.misses, n/1e3), ratio(b.bytes, n/1e3)
	fmt.Fprintf(r.out, "# budget %-10s client %.1f us = wire %.1f + admit_to_sched %.1f + queue_wait %.1f + exec %.1f (kernel %.1f + disk_wait %.1f + charge %.1f + resolve %.1f); residual %.2f%%; %d samples, %d spans, %d matched\n",
		p.name+":", b.lat, b.wire, b.admit, b.queue, b.exec, kernel, b.diskWait, b.exec-kernel-b.diskWait-b.resolve, b.resolve,
		b.residualPct(), len(p.samples), b.spans, b.matched)
	return b
}

// residualPct is the part of the client's latency the budget does not
// attribute. wire is defined on matched pairs, so this reads near zero unless
// spans were lost or samples and spans describe different queries.
func (b budget) residualPct() float64 {
	return 100 * ratio(b.lat-b.wire-b.admit-b.queue-b.exec, b.lat)
}

// smallbuf is the ungated small-buffer phase: default TimeScale, 2 MiB
// buffers, sat shape. Its throughput is set by timer granularity on
// microsecond sleeps, so only its counts mean anything (README).
func (r *run) smallbuf(kernel float64) error {
	c, err := r.standUp(2<<20, traceSpans)
	if err != nil {
		return err
	}
	if _, err := r.drive("warm-smallbuf", satCallers, r.part(1), c.tcp(r.in)); err != nil {
		return err
	}
	before := scrape(c)
	p, err := r.drive("smallbuf", satCallers, r.part(3), c.tcp(r.in))
	if err != nil {
		return err
	}
	after := scrape(c)
	bud := r.spanBudget(p, c.rt.Trace(traceSpans), kernel)
	if err := c.close(); err != nil {
		return err
	}
	hits, misses := after.delta(before, "subtrav_unit_cache_hits_total"), after.delta(before, "subtrav_unit_cache_misses_total")
	r.set("live.smallbuf_qps", p.qps())
	r.set("cache.smallbuf_hit_rate", ratio(hits, hits+misses))
	r.set("storage.smallbuf_reads_per_query", bud.misses)
	r.set("storage.smallbuf_fetch_us", ratio(bud.exec-kernel, bud.misses))
	return nil
}

// scraped is one reading of the runtime's Prometheus text, summed over labels.
type scraped map[string]float64

// scrape renders the registry into memory and sums each family over its
// label sets (the per-unit series become one number).
func scrape(st *stack) scraped {
	var b strings.Builder
	st.rt.Registry().WritePrometheus(&b)
	out := scraped{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		name := line[:cut]
		if brace := strings.IndexByte(name, '{'); brace >= 0 {
			if strings.Contains(name, "le=") {
				continue // histogram buckets: _sum and _count are enough
			}
			name = name[:brace]
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err == nil {
			out[name] += v
		}
	}
	return out
}

func (s scraped) delta(before scraped, name string) float64 { return s[name] - before[name] }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// registryMetrics derives the scheduler, cache and direction numbers the
// runtime already counts, over the traced phase alone.
func (r *run) registryMetrics(before, after scraped) {
	d := func(name string) float64 { return after.delta(before, name) }
	rounds := d("subtrav_sched_rounds_total")
	placed := d("subtrav_sched_auctioned_total") + d("subtrav_sched_followed_affinity_total") + d("subtrav_sched_empty_row_total")
	hits, misses := d("subtrav_unit_cache_hits_total"), d("subtrav_unit_cache_misses_total")
	push, pull := d("subtrav_traverse_push_waves_total"), d("subtrav_traverse_pull_waves_total")
	r.set("sched.round_us", ratio(d("subtrav_sched_round_nanos_sum"), d("subtrav_sched_round_nanos_count"))/1e3)
	r.set("sched.tasks_per_round", ratio(placed, rounds))
	r.set("sched.imbalance_mean", ratio(d("subtrav_sched_imbalance_milli_sum"), d("subtrav_sched_imbalance_milli_count"))/1e3)
	r.set("affinity.hit_ratio", ratio(d("subtrav_sched_affinity_hits_total"), d("subtrav_sched_affinity_eligible_total")))
	r.set("auction.bid_rounds_per_round", ratio(d("subtrav_sched_auction_bid_rounds_total"), rounds))
	r.set("cache.hit_rate", ratio(hits, hits+misses))
	r.set("cache.evictions_per_query", ratio(d("subtrav_unit_cache_evictions_total"), d("subtrav_queries_completed_total")))
	r.set("traverse.pull_wave_share", ratio(pull, push+pull))
}

// traceSpan is one record of bench/out/trace-<workload>.json.
type traceSpan struct {
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	Query   int64  `json:"query"` // runtime query id; -1 for a phase
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// maxTraceQueries caps the per-query part of the trace file (run.tracedQueries).
const maxTraceQueries = 5000

// span keeps a span in memory; nothing is written until the phases end.
func (r *run) span(name, parent string, query, start, end int64) {
	if r.traced {
		r.spans = append(r.spans, traceSpan{name, parent, query, start, end})
	}
}

func (r *run) writeTrace() error {
	f, err := os.Create(filepath.Join(r.outDir, "trace-"+r.spec.name+".json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
