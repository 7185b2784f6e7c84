// Package loadgen builds deterministic open-loop load plans for the
// query service and aggregates their outcomes into machine-readable
// SLO reports.
//
// Open-loop means arrivals are generated by a clock, not by response
// completion: when the service slows down, the generator keeps
// offering load at the configured rate, so overload shows up as
// rejections, timeouts and a widening offered-vs-goodput gap — the
// knee of the latency/throughput curve — instead of being hidden by
// closed-loop self-throttling.
//
// Everything in this package is deterministic: a Config's Seed fully
// determines the plan (arrival times, op mix, hot-key draws, tenant
// attribution, per-event seeds) via internal/xrand streams, and Replay
// — which runs a plan through the simulator, sim.Cluster, in virtual
// time — produces byte-identical reports for identical inputs.
// Wall-clock pacing against a real service lives in cmd/subtrav-load,
// outside this package, so loadgen itself stays under the repository's
// simulation-determinism policy.
package loadgen

import (
	"fmt"
	"math"
	"sort"

	"subtrav/internal/xrand"
)

// Op names mirror service.WireQuery.Op.
const (
	OpBFS    = "bfs"
	OpSSSP   = "sssp"
	OpCollab = "collab"
	OpRWR    = "rwr"
)

// Arrival shapes.
const (
	// ShapeConstant offers a flat QPS (homogeneous Poisson arrivals).
	ShapeConstant = "constant"
	// ShapeBurst alternates a quiet base rate with a burst at
	// burstFactor times the base for burstLenNanos of every
	// burstEveryNanos; the time-averaged rate is still QPS.
	ShapeBurst = "burst"
	// ShapeDiurnal modulates the rate sinusoidally around QPS with
	// amplitude diurnalAmp over the plan's whole duration — a
	// compressed day/night cycle.
	ShapeDiurnal = "diurnal"
)

// The shapes' parameters.
const (
	burstFactor     = 4
	burstEveryNanos = 1_000_000_000
	burstLenNanos   = 100_000_000
	diurnalAmp      = 0.8
)

// OpMix weights the four traversal ops in the generated stream. Zero
// weights drop the op; the weights need not sum to 1.
type OpMix struct {
	BFS    float64
	SSSP   float64
	Collab float64
	RWR    float64
}

// DefaultOpMix is a read-heavy mix exercising every op.
func DefaultOpMix() OpMix { return OpMix{BFS: 0.5, SSSP: 0.2, Collab: 0.15, RWR: 0.15} }

// TenantProfile names one tenant and its share of the offered load.
type TenantProfile struct {
	Name string
	// Weight is the tenant's relative traffic share (need not be
	// normalized).
	Weight float64
}

// Config parameterizes a load plan.
type Config struct {
	// Seed determines every random choice in the plan.
	Seed uint64
	// DurationNanos is the plan's virtual length.
	DurationNanos int64
	// QPS is the time-averaged target arrival rate.
	QPS float64
	// Shape selects the arrival process (default ShapeConstant).
	Shape string

	// Mix weights the traversal ops (default DefaultOpMix).
	Mix OpMix
	// Tenants attributes traffic to named tenants by weight (default
	// one tenant "default" with weight 1).
	Tenants []TenantProfile

	// NumKeys is the start-vertex key space: events draw starts in
	// [0, NumKeys).
	NumKeys int32
	// ZipfS skews key popularity: key k is drawn with weight
	// 1/(k+1)^ZipfS, so low-numbered keys are hot. 0 = uniform.
	ZipfS float64

	// TimeoutNanos, when positive, is the per-query deadline carried on
	// every event.
	TimeoutNanos int64
}

func (c *Config) validate() error {
	if c.DurationNanos <= 0 {
		return fmt.Errorf("loadgen: DurationNanos = %d, want > 0", c.DurationNanos)
	}
	if c.QPS <= 0 {
		return fmt.Errorf("loadgen: QPS = %g, want > 0", c.QPS)
	}
	if c.NumKeys <= 0 {
		return fmt.Errorf("loadgen: NumKeys = %d, want > 0", c.NumKeys)
	}
	if c.ZipfS < 0 {
		return fmt.Errorf("loadgen: ZipfS = %g, want >= 0", c.ZipfS)
	}
	if c.TimeoutNanos < 0 {
		return fmt.Errorf("loadgen: TimeoutNanos = %d, want >= 0", c.TimeoutNanos)
	}
	switch c.Shape {
	case "":
		c.Shape = ShapeConstant
	case ShapeConstant, ShapeBurst, ShapeDiurnal:
	default:
		return fmt.Errorf("loadgen: unknown shape %q", c.Shape)
	}
	zero := OpMix{}
	if c.Mix == zero {
		c.Mix = DefaultOpMix()
	}
	if c.Mix.BFS < 0 || c.Mix.SSSP < 0 || c.Mix.Collab < 0 || c.Mix.RWR < 0 ||
		c.Mix.BFS+c.Mix.SSSP+c.Mix.Collab+c.Mix.RWR <= 0 {
		return fmt.Errorf("loadgen: invalid op mix %+v", c.Mix)
	}
	if len(c.Tenants) == 0 {
		c.Tenants = []TenantProfile{{Name: "default", Weight: 1}}
	}
	var wsum float64
	for _, tp := range c.Tenants {
		if tp.Name == "" {
			return fmt.Errorf("loadgen: tenant with empty name")
		}
		if tp.Weight < 0 {
			return fmt.Errorf("loadgen: tenant %q weight %g, want >= 0", tp.Name, tp.Weight)
		}
		wsum += tp.Weight
	}
	if wsum <= 0 {
		return fmt.Errorf("loadgen: tenant weights sum to %g, want > 0", wsum)
	}
	return nil
}

// Event is one planned query arrival.
type Event struct {
	// Index is the event's position in the plan (0-based).
	Index int
	// ArrivalNanos is the virtual offset from plan start.
	ArrivalNanos int64
	Op           string
	// Start is the traversal anchor vertex; Target is set for SSSP.
	Start  int32
	Target int32
	Tenant string
	// Seed is the event's private random stream: it seeds RWR walks
	// and the client's retry-backoff jitter, so replays of the same
	// plan jitter identically.
	Seed uint64
	// TimeoutNanos is the per-query deadline (0 = none).
	TimeoutNanos int64
}

// Plan is a fully materialized arrival schedule.
type Plan struct {
	Config Config
	Events []Event
}

// rate returns the instantaneous target rate (events/ns) at offset t.
func (c *Config) rate(t int64) float64 {
	perNano := c.QPS / 1e9
	switch c.Shape {
	case ShapeBurst:
		frac := float64(burstLenNanos) / float64(burstEveryNanos)
		base := perNano / ((1 - frac) + burstFactor*frac)
		if t%burstEveryNanos < burstLenNanos {
			return base * burstFactor
		}
		return base
	case ShapeDiurnal:
		phase := 2 * math.Pi * float64(t) / float64(c.DurationNanos)
		return perNano * (1 + diurnalAmp*math.Sin(phase))
	default:
		return perNano
	}
}

// peakRate returns the thinning envelope (events/ns).
func (c *Config) peakRate() float64 {
	perNano := c.QPS / 1e9
	switch c.Shape {
	case ShapeBurst:
		frac := float64(burstLenNanos) / float64(burstEveryNanos)
		return perNano / ((1 - frac) + burstFactor*frac) * burstFactor
	case ShapeDiurnal:
		return perNano * (1 + diurnalAmp)
	default:
		return perNano
	}
}

// BuildPlan materializes the arrival schedule for cfg. The same config
// always yields the same plan: arrivals come from a thinned Poisson
// process (so every shape is a true Poisson process with the requested
// instantaneous rate), ops and tenants from alias tables, and keys
// from a Zipfian alias table over [0, NumKeys).
func BuildPlan(cfg Config) (*Plan, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	root := xrand.New(cfg.Seed)
	arrivals := root.Split()
	opPick := root.Split()
	keyPick := root.Split()
	tenantPick := root.Split()
	seeds := root.Split()

	ops, opAlias := opAlias(cfg.Mix)
	keyAlias := zipfAlias(int(cfg.NumKeys), cfg.ZipfS)
	tw := make([]float64, len(cfg.Tenants))
	for i, tp := range cfg.Tenants {
		tw[i] = tp.Weight
	}
	tenantAlias := xrand.NewAlias(tw)

	peak := cfg.peakRate()
	plan := &Plan{Config: cfg}
	var t int64
	for {
		// Next candidate arrival of the rate-peak Poisson process.
		step := arrivals.ExpFloat64() / peak
		if step > float64(cfg.DurationNanos) { // guard absurd steps
			break
		}
		t += int64(step)
		if t >= cfg.DurationNanos {
			break
		}
		// Thin: keep with probability rate(t)/peak.
		if arrivals.Float64()*peak > cfg.rate(t) {
			continue
		}
		ev := Event{
			Index:        len(plan.Events),
			ArrivalNanos: t,
			Op:           ops[opAlias.Sample(opPick)],
			Start:        int32(keyAlias.Sample(keyPick)),
			Tenant:       cfg.Tenants[tenantAlias.Sample(tenantPick)].Name,
			Seed:         seeds.Uint64(),
			TimeoutNanos: cfg.TimeoutNanos,
		}
		if ev.Op == OpSSSP {
			ev.Target = int32(keyAlias.Sample(keyPick))
		}
		plan.Events = append(plan.Events, ev)
	}
	return plan, nil
}

// opAlias builds the op alias table, dropping zero-weight ops.
func opAlias(mix OpMix) ([]string, *xrand.Alias) {
	var ops []string
	var w []float64
	for _, c := range []struct {
		op string
		w  float64
	}{{OpBFS, mix.BFS}, {OpSSSP, mix.SSSP}, {OpCollab, mix.Collab}, {OpRWR, mix.RWR}} {
		if c.w > 0 {
			ops = append(ops, c.op)
			w = append(w, c.w)
		}
	}
	return ops, xrand.NewAlias(w)
}

// zipfAlias builds a Zipf(s) alias table over n keys: key k gets
// weight 1/(k+1)^s, so key 0 is hottest. s = 0 degenerates to uniform.
func zipfAlias(n int, s float64) *xrand.Alias {
	w := make([]float64, n)
	for k := range w {
		w[k] = math.Pow(float64(k+1), -s)
	}
	return xrand.NewAlias(w)
}

// TenantNames returns the distinct tenant names of a plan, sorted.
func (p *Plan) TenantNames() []string {
	seen := make(map[string]bool)
	var names []string
	for _, tp := range p.Config.Tenants {
		if !seen[tp.Name] {
			seen[tp.Name] = true
			names = append(names, tp.Name)
		}
	}
	sort.Strings(names)
	return names
}
