// Command subtrav-load is the open-loop load harness for the query
// service: it materializes a deterministic arrival plan
// (internal/loadgen) — target QPS with burst/diurnal shapes, a mixed
// op stream, Zipfian hot keys, weighted tenants — and either drives a
// live subtrav-service over TCP at wall-clock pace or runs the plan
// through the simulator in virtual time (-sim: what subtrav-service
// serves by default, under the paper's scheduler and under the
// baseline), emitting a machine-readable SLO report: goodput vs
// offered load, latency p50/p99/p999, per-tenant fairness, and the
// error/timeout/retry breakdown.
//
// Open-loop means arrivals never wait for responses: when the service
// saturates, the harness keeps offering load and the overload surfaces
// as rejections, timeouts and a flattening goodput curve — the knee —
// instead of being hidden by closed-loop self-throttling.
//
// Usage:
//
//	subtrav-load -sim -qps 4,16,64,256,512 -duration 120s -timeout 5s   # simulator, byte-reproducible
//	subtrav-load -addr 127.0.0.1:7070 -qps 200 -duration 10s
//	subtrav-load -addr ... -qps 500 -shape burst -tenants gold:3,bronze:1 -out report.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"subtrav"
	"subtrav/internal/graph"
	"subtrav/internal/loadgen"
	"subtrav/internal/service"
	"subtrav/internal/sim"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "service address (live mode)")
		simMode  = flag.Bool("sim", false, "run the plan through the simulator in virtual time, under SCH and under the baseline, instead of against a live service")
		qpsList  = flag.String("qps", "200", "comma-separated offered-load sweep, queries/second per point")
		duration = flag.Duration("duration", 5*time.Second, "run length per sweep point")
		shape    = flag.String("shape", "constant", "arrival shape: constant, burst, diurnal")
		seed     = flag.Uint64("seed", 1, "plan seed; fixes arrivals, op/key/tenant draws and retry jitter")
		tenants  = flag.String("tenants", "default:1", "weighted tenants as name:weight,name:weight")
		mix      = flag.String("mix", "bfs:0.5,sssp:0.2,collab:0.15,rwr:0.15", "op mix weights")
		keys     = flag.Int("keys", 20000, "start-vertex key space (should not exceed the served graph)")
		zipf     = flag.Float64("zipf", 1.1, "Zipf exponent for hot-key skew (0 = uniform)")
		timeout  = flag.Duration("timeout", 250*time.Millisecond, "per-query server-side deadline, virtual time under -sim (0 = none)")

		conns     = flag.Int("conns", 4, "client connections (live mode)")
		retries   = flag.Int("retries", 4, "attempts per query under backpressure (live mode; under -sim a rejection is final)")
		retryBase = flag.Duration("retry-base", time.Millisecond, "base delay of the jittered retry backoff (live mode)")

		simUnits   = flag.Int("sim-units", 4, "simulated processing units (-sim)")
		simPending = flag.Int("sim-maxpending", 64, "simulated admission bound (-sim; 0 = unbounded)")

		out = flag.String("out", "", "write the JSON report here (default stdout)")
	)
	flag.Parse()

	points, err := parseQPS(*qpsList)
	if err != nil {
		fatal(err)
	}
	tenantProfiles, err := parseTenants(*tenants)
	if err != nil {
		fatal(err)
	}
	opMix, err := parseMix(*mix)
	if err != nil {
		fatal(err)
	}

	base := loadgen.Config{
		DurationNanos: duration.Nanoseconds(),
		Shape:         *shape,
		Mix:           opMix,
		Tenants:       tenantProfiles,
		NumKeys:       int32(*keys),
		ZipfS:         *zipf,
		TimeoutNanos:  timeout.Nanoseconds(),
	}
	mode, drive := "live", func(cfg loadgen.Config) ([]*loadgen.Report, error) {
		rep, err := driveLive(*addr, cfg, *conns, *retries, *retryBase)
		return []*loadgen.Report{rep}, err
	}
	if *simMode {
		// What subtrav-service serves by default: -scale small -seed 42
		// -mem 64.
		g, err := subtrav.TwitterLike(subtrav.ScaleSmall, 42)
		if err != nil {
			fatal(err)
		}
		mode, drive = "sim", simDriver(g, sim.Config{NumUnits: *simUnits, MemoryPerUnit: 64 << 20, MaxPending: *simPending})
	}
	b, err := sweep(mode, points, *seed, base, drive)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fatal(err)
	}
}

// sweep drives one plan per offered-load point and renders the
// reports — one per point from a live service, one per placement
// policy per point from the simulator — as the harness's JSON output.
func sweep(mode string, points []float64, seed uint64, base loadgen.Config, drive func(loadgen.Config) ([]*loadgen.Report, error)) ([]byte, error) {
	output := struct {
		Mode   string            `json:"mode"`
		Points []*loadgen.Report `json:"points"`
	}{Mode: mode, Points: make([]*loadgen.Report, 0, len(points))}
	for i, qps := range points {
		cfg := base
		// Offset the seed per sweep point so points are independent
		// draws while the whole sweep stays a pure function of -seed.
		cfg.Seed = seed + uint64(i)*0x9e3779b97f4a7c15
		cfg.QPS = qps
		reps, err := drive(cfg)
		if err != nil {
			return nil, err
		}
		for _, rep := range reps {
			fmt.Fprintf(os.Stderr, "subtrav-load: point %d/%d qps=%g policy=%q offered=%.1f goodput=%.1f p50=%.2fms p99=%.2fms rejected=%d timeout=%d\n",
				i+1, len(points), qps, rep.Policy, rep.OfferedQPS, rep.GoodputQPS,
				rep.LatencyP50Nanos/1e6, rep.LatencyP99Nanos/1e6, rep.Rejected, rep.Timeout)
		}
		output.Points = append(output.Points, reps...)
	}
	b, err := json.MarshalIndent(output, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// simDriver replays a plan through the simulator (loadgen.Replay) on g
// under the paper's scheduler and then under the baseline, a fresh
// cluster each.
func simDriver(g *graph.Graph, cfg sim.Config) func(loadgen.Config) ([]*loadgen.Report, error) {
	return func(lc loadgen.Config) ([]*loadgen.Report, error) {
		plan, err := loadgen.BuildPlan(lc)
		if err != nil {
			return nil, err
		}
		var reps []*loadgen.Report
		for _, policy := range []string{loadgen.PolicySCH, loadgen.PolicyBaseline} {
			rep, res, err := loadgen.Replay(g, cfg, policy, plan)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "subtrav-load: %v\n", res)
			reps = append(reps, rep)
		}
		return reps, nil
	}
}

// driveLive replays one plan against a live service at wall-clock
// pace: each event fires at its planned arrival offset regardless of
// how earlier events are faring (open loop), round-robined over conns
// pipelined connections. Retry jitter is seeded per event from the
// plan, so two runs of the same plan back off identically; wall-clock
// latencies still vary run to run.
func driveLive(addr string, cfg loadgen.Config, conns, retries int, retryBase time.Duration) (*loadgen.Report, error) {
	plan, err := loadgen.BuildPlan(cfg)
	if err != nil {
		return nil, err
	}
	queries := make([]service.WireQuery, len(plan.Events))
	for i, ev := range plan.Events {
		if queries[i], err = wireQuery(ev); err != nil {
			return nil, err
		}
	}
	clients := make([]*service.Client, conns)
	for i := range clients {
		c, err := service.Dial(addr)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		defer c.Close()
		clients[i] = c
	}

	outcomes := make([]loadgen.Outcome, len(plan.Events))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range plan.Events {
		ev := plan.Events[i]
		if d := time.Duration(ev.ArrivalNanos) - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, ev loadgen.Event) {
			defer wg.Done()
			outcomes[i] = fireEvent(clients[i%len(clients)], ev, queries[i], retries, retryBase)
		}(i, ev)
	}
	wg.Wait()

	rep, err := loadgen.BuildReport(plan, outcomes)
	if err != nil {
		return nil, err
	}
	// Per-event retry counts are not observable through DoRetry; fold
	// in the clients' aggregate instead.
	rep.Retries = 0
	for _, c := range clients {
		rep.Retries += int(c.Retries())
	}
	return rep, nil
}

// wireQuery puts the event's query (loadgen.Event.Query, the one
// statement of the per-op parameters) on the wire.
func wireQuery(ev loadgen.Event) (service.WireQuery, error) {
	q, err := ev.Query()
	if err != nil {
		return service.WireQuery{}, err
	}
	return service.WireQuery{
		Op: ev.Op, Start: ev.Start, Target: int32(q.Target), Tenant: ev.Tenant,
		Depth: q.Depth, MaxVisits: q.MaxVisits,
		SimilarityThreshold: q.SimilarityThreshold,
		Steps:               q.Steps, RestartProb: q.RestartProb, TopK: q.TopK, Seed: q.Seed,
	}, nil
}

// fireEvent issues one planned query and classifies its resolution.
func fireEvent(c *service.Client, ev loadgen.Event, q service.WireQuery, retries int, retryBase time.Duration) loadgen.Outcome {
	t0 := time.Now()
	reply, err := c.DoRetry(q, time.Duration(ev.TimeoutNanos), service.RetryPolicy{
		MaxAttempts: retries,
		BaseDelay:   retryBase,
		Seed:        ev.Seed,
	})
	lat := time.Since(t0).Nanoseconds()
	o := loadgen.Outcome{Index: ev.Index, LatencyNanos: lat}
	switch {
	case err == nil:
		o.Code = loadgen.CodeOK
	case errors.Is(err, service.ErrRejected):
		o.Code = loadgen.CodeRejected
	case errors.Is(err, service.ErrDeadline):
		o.Code = loadgen.CodeTimeout
	case reply.Err != "":
		o.Code = loadgen.CodeFailed
	default:
		o.Code = loadgen.CodeTransport
	}
	return o
}

func parseQPS(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad qps point %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty qps list")
	}
	return out, nil
}

func parseTenants(s string) ([]loadgen.TenantProfile, error) {
	var out []loadgen.TenantProfile
	for _, part := range strings.Split(s, ",") {
		name, weight, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad tenant %q, want name:weight", part)
		}
		w, err := strconv.ParseFloat(weight, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad tenant weight %q", part)
		}
		out = append(out, loadgen.TenantProfile{Name: name, Weight: w})
	}
	return out, nil
}

func parseMix(s string) (loadgen.OpMix, error) {
	var mix loadgen.OpMix
	for _, part := range strings.Split(s, ",") {
		op, weight, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return mix, fmt.Errorf("bad mix entry %q, want op:weight", part)
		}
		w, err := strconv.ParseFloat(weight, 64)
		if err != nil || w < 0 {
			return mix, fmt.Errorf("bad mix weight %q", part)
		}
		switch op {
		case loadgen.OpBFS:
			mix.BFS = w
		case loadgen.OpSSSP:
			mix.SSSP = w
		case loadgen.OpCollab:
			mix.Collab = w
		case loadgen.OpRWR:
			mix.RWR = w
		default:
			return mix, fmt.Errorf("unknown op %q in mix", op)
		}
	}
	return mix, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "subtrav-load:", err)
	os.Exit(1)
}
