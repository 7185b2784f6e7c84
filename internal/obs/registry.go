// Package obs is the observability layer of the live system: a
// dependency-free (stdlib-only) metrics registry — atomic counters,
// gauges and log-bucketed histograms with bounded-error quantiles —
// exposed in the Prometheus text format, plus a per-query trace-span
// pipeline captured into a fixed-size lock-cheap ring buffer and an
// optional HTTP debug server serving /metrics, /healthz and pprof.
//
// Everything here is hot-path safe: counters and histogram
// observations are single atomic adds, span capture is one atomic
// reservation plus a per-slot mutex, and a nil *Ring disables tracing
// with a single branch. The registry itself is read-mostly; metric
// handles are created once at wiring time and then touched lock-free.
package obs

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (callers must keep counters monotone; negative deltas
// are a programming error but are not checked on the hot path).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an atomic instantaneous float64 value, for ratios and
// factors that do not fit the integer Gauge (load-imbalance factor,
// affinity hit ratio). Set/Value are single atomic word operations.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind discriminates exposition TYPE lines.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance within a family. collect returns the
// instantaneous value for counters/gauges; hist is set for histograms.
type series struct {
	labels  []Label
	collect func() float64
	hist    *Histogram
}

// family groups all series sharing one metric name.
type family struct {
	name string
	help string
	kind metricKind

	mu     sync.Mutex
	series []*series
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. All methods are safe for concurrent use;
// registration is expected at wiring time, collection at scrape time.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// getFamily returns the family for name, creating it with the given
// kind/help; it panics on a kind clash (programmer error: two call
// sites disagree about what a metric is).
func (r *Registry) getFamily(name, help string, kind metricKind) *family {
	if err := checkName(name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.order = append(r.order, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

// addSeries appends a series, panicking on a duplicate label set.
func (f *family) addSeries(s *series) {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := labelKey(s.labels)
	for _, existing := range f.series {
		if labelKey(existing.labels) == key {
			panic(fmt.Sprintf("obs: duplicate series %s%s", f.name, key))
		}
	}
	f.series = append(f.series, s)
}

// Counter registers (or creates) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	f := r.getFamily(name, help, kindCounter)
	f.addSeries(&series{labels: labels, collect: func() float64 { return float64(c.Value()) }})
	return c
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time — for exposing counters that already live elsewhere
// (e.g. metrics.Counters atomics) without double accounting. fn must
// be safe for concurrent use and monotone.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	f := r.getFamily(name, help, kindCounter)
	f.addSeries(&series{labels: labels, collect: func() float64 { return float64(fn()) }})
}

// Gauge registers a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	f := r.getFamily(name, help, kindGauge)
	f.addSeries(&series{labels: labels, collect: func() float64 { return float64(g.Value()) }})
	return g
}

// GaugeFunc registers a gauge computed by fn at scrape time. fn must
// be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.getFamily(name, help, kindGauge)
	f.addSeries(&series{labels: labels, collect: fn})
}

// FloatGauge registers a float-valued gauge series.
func (r *Registry) FloatGauge(name, help string, labels ...Label) *FloatGauge {
	g := &FloatGauge{}
	f := r.getFamily(name, help, kindGauge)
	f.addSeries(&series{labels: labels, collect: g.Value})
	return g
}

// Histogram registers a log-bucketed histogram series.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	h := NewHistogram()
	f := r.getFamily(name, help, kindHistogram)
	f.addSeries(&series{labels: labels, hist: h})
	return h
}

// RegisterHistogram exposes a histogram that already lives elsewhere
// (e.g. a scheduler-owned digest fed before any registry is wired)
// without double accounting. The registry takes no ownership; the
// caller keeps observing into h.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...Label) {
	f := r.getFamily(name, help, kindHistogram)
	f.addSeries(&series{labels: labels, hist: h})
}

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	order := append([]*family(nil), r.order...)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range order {
		f.mu.Lock()
		ss := append([]*series(nil), f.series...)
		f.mu.Unlock()
		if len(ss) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range ss {
			if f.kind == kindHistogram {
				writeHistogram(&b, f.name, s.labels, s.hist)
				continue
			}
			fmt.Fprintf(&b, "%s%s %s\n", f.name, labelKey(s.labels), formatValue(s.collect()))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series: cumulative non-empty
// buckets, +Inf, _sum and _count.
func writeHistogram(b *strings.Builder, name string, labels []Label, h *Histogram) {
	snap := h.Snapshot()
	var cum int64
	for _, bk := range snap.Buckets {
		cum += bk.Count
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, labelKeyLE(labels, formatValue(bk.UpperBound)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, labelKeyLE(labels, "+Inf"), snap.Count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labelKey(labels), formatValue(float64(snap.Sum)))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labelKey(labels), snap.Count)
}

// labelKey renders {k1="v1",k2="v2"} or "" for no labels.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// labelKeyLE renders the label set with an additional le bucket bound.
func labelKeyLE(labels []Label, le string) string {
	parts := make([]string, 0, len(labels)+1)
	for _, l := range labels {
		parts = append(parts, fmt.Sprintf("%s=%q", l.Key, l.Value))
	}
	parts = append(parts, fmt.Sprintf("le=%q", le))
	return "{" + strings.Join(parts, ",") + "}"
}

// formatValue renders a sample value the way Prometheus expects:
// integral values without an exponent, everything else in shortest
// round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// checkName validates a metric name against the Prometheus grammar.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("obs: empty metric name")
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return fmt.Errorf("obs: invalid metric name %q", name)
		}
	}
	return nil
}
