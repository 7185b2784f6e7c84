package loadgen

import (
	"fmt"
	"sort"

	"subtrav/internal/obs"
)

// Outcome codes, the client-side view of one event's resolution.
const (
	// CodeOK: the query completed successfully.
	CodeOK = "ok"
	// CodeFailed: the server executed the query but returned an error.
	CodeFailed = "failed"
	// CodeRejected: admission control refused the query and every retry.
	CodeRejected = "rejected"
	// CodeTimeout: the query's deadline expired server-side.
	CodeTimeout = "timeout"
	// CodeTransport: the connection failed before a reply arrived.
	CodeTransport = "transport"
)

// Outcome is one event's resolution as seen by the driver.
type Outcome struct {
	// Index is the plan event this outcome resolves.
	Index int
	// Code classifies the resolution (CodeOK, ...).
	Code string
	// Retries counts extra attempts beyond the first.
	Retries int
	// LatencyNanos is the time from the event's arrival to its
	// resolution, retry backoff included.
	LatencyNanos int64
}

// TenantReport is one tenant's slice of a Report.
type TenantReport struct {
	Tenant    string  `json:"tenant"`
	Weight    float64 `json:"weight"`
	Offered   int     `json:"offered"`
	OK        int     `json:"ok"`
	Failed    int     `json:"failed"`
	Rejected  int     `json:"rejected"`
	Timeout   int     `json:"timeout"`
	Transport int     `json:"transport"`
	Retries   int     `json:"retries"`
	// GoodputQPS is the tenant's successful completions per second of
	// Report.CompletionSeconds.
	GoodputQPS float64 `json:"goodput_qps"`
}

// Report is the machine-readable result of driving one plan. All
// fields derive deterministically from the plan and its outcomes, and
// it renders to stable JSON: struct field order plus encoding/json's
// sorted map keys make identical reports byte-identical.
type Report struct {
	// Policy names the placement policy of a simulated run (Replay);
	// empty for a live run, whose server chose its own.
	Policy          string  `json:"policy,omitempty"`
	Seed            uint64  `json:"seed"`
	Shape           string  `json:"shape"`
	DurationSeconds float64 `json:"duration_seconds"`
	// CompletionSeconds is the span the successful completions landed
	// in: the arrival window, extended to the last completion when the
	// backlog drains past it. It is what goodput is measured over — a
	// saturated system keeps completing after the last arrival, and
	// dividing those completions by the arrival window alone would
	// report more than it ever delivered.
	CompletionSeconds float64 `json:"completion_seconds"`
	// TargetQPS is the configured rate; OfferedQPS the plan's realized
	// arrival rate over DurationSeconds; GoodputQPS successful
	// completions per second of CompletionSeconds. Under overload
	// OfferedQPS keeps tracking TargetQPS while GoodputQPS flattens —
	// the knee.
	TargetQPS  float64 `json:"target_qps"`
	OfferedQPS float64 `json:"offered_qps"`
	GoodputQPS float64 `json:"goodput_qps"`

	Offered   int `json:"offered"`
	OK        int `json:"ok"`
	Failed    int `json:"failed"`
	Rejected  int `json:"rejected"`
	Timeout   int `json:"timeout"`
	Transport int `json:"transport"`
	Retries   int `json:"retries"`

	// Latency quantiles over successful completions, from the obs
	// log-bucketed digest (relative error <= obs.QuantileMaxRelativeError).
	LatencyP50Nanos  float64 `json:"latency_p50_nanos"`
	LatencyP99Nanos  float64 `json:"latency_p99_nanos"`
	LatencyP999Nanos float64 `json:"latency_p999_nanos"`

	// Fairness is the Jain index over per-tenant goodput normalized by
	// tenant weight: 1 = perfectly weighted-fair, 1/n = one tenant
	// takes everything.
	Fairness float64 `json:"fairness"`

	Ops     map[string]int `json:"ops"`
	Tenants []TenantReport `json:"tenants"`
}

// BuildReport aggregates outcomes against their plan. Outcomes may
// arrive in any order and may be sparse (missing indices count as
// transport failures); duplicate indices are an error.
func BuildReport(plan *Plan, outcomes []Outcome) (*Report, error) {
	cfg := plan.Config
	rep := &Report{
		Seed:            cfg.Seed,
		Shape:           cfg.Shape,
		DurationSeconds: float64(cfg.DurationNanos) / 1e9,
		TargetQPS:       cfg.QPS,
		Offered:         len(plan.Events),
		Ops:             make(map[string]int),
	}
	rep.OfferedQPS = float64(rep.Offered) / rep.DurationSeconds

	byTenant := make(map[string]*TenantReport)
	for _, tp := range cfg.Tenants {
		if _, ok := byTenant[tp.Name]; !ok {
			byTenant[tp.Name] = &TenantReport{Tenant: tp.Name, Weight: tp.Weight}
		}
	}
	seen := make([]bool, len(plan.Events))
	for _, ev := range plan.Events {
		tr, ok := byTenant[ev.Tenant]
		if !ok {
			return nil, fmt.Errorf("loadgen: event %d names tenant %q, which the plan's config does not list", ev.Index, ev.Tenant)
		}
		rep.Ops[ev.Op]++
		tr.Offered++
	}

	lat := obs.NewHistogram()
	completionNanos := cfg.DurationNanos
	for _, o := range outcomes {
		if o.Index < 0 || o.Index >= len(plan.Events) {
			return nil, fmt.Errorf("loadgen: outcome index %d outside plan of %d events", o.Index, len(plan.Events))
		}
		if seen[o.Index] {
			return nil, fmt.Errorf("loadgen: duplicate outcome for event %d", o.Index)
		}
		seen[o.Index] = true
		tr := byTenant[plan.Events[o.Index].Tenant]
		rep.Retries += o.Retries
		tr.Retries += o.Retries
		switch o.Code {
		case CodeOK:
			rep.OK++
			tr.OK++
			lat.Observe(o.LatencyNanos)
			completionNanos = max(completionNanos, plan.Events[o.Index].ArrivalNanos+o.LatencyNanos)
		case CodeFailed:
			rep.Failed++
			tr.Failed++
		case CodeRejected:
			rep.Rejected++
			tr.Rejected++
		case CodeTimeout:
			rep.Timeout++
			tr.Timeout++
		case CodeTransport:
			rep.Transport++
			tr.Transport++
		default:
			return nil, fmt.Errorf("loadgen: unknown outcome code %q", o.Code)
		}
	}
	for i := range seen {
		if !seen[i] {
			rep.Transport++
			byTenant[plan.Events[i].Tenant].Transport++
		}
	}

	qs := lat.Quantiles(0.5, 0.99, 0.999)
	rep.LatencyP50Nanos, rep.LatencyP99Nanos, rep.LatencyP999Nanos = qs[0], qs[1], qs[2]
	rep.CompletionSeconds = float64(completionNanos) / 1e9
	rep.GoodputQPS = float64(rep.OK) / rep.CompletionSeconds

	for _, tr := range byTenant {
		tr.GoodputQPS = float64(tr.OK) / rep.CompletionSeconds
		rep.Tenants = append(rep.Tenants, *tr)
	}
	sort.Slice(rep.Tenants, func(i, j int) bool { return rep.Tenants[i].Tenant < rep.Tenants[j].Tenant })
	rep.Fairness = weightedJain(rep.Tenants)
	return rep, nil
}

// weightedJain computes the Jain fairness index over per-tenant
// goodput normalized by weight: (Σx)²/(n·Σx²), x_i = goodput_i/w_i.
// An idle system (all zeros) is perfectly fair.
func weightedJain(tenants []TenantReport) float64 {
	var sum, sumSq float64
	n := 0
	for _, tr := range tenants {
		if tr.Weight <= 0 {
			continue
		}
		x := tr.GoodputQPS / tr.Weight
		sum += x
		sumSq += x * x
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(n) * sumSq)
}
