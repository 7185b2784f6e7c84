package live

import (
	"strings"
	"testing"

	"subtrav/internal/graph"
	"subtrav/internal/obs"
	"subtrav/internal/sched"
	"subtrav/internal/traverse"
)

// TestTraceSpansCaptured runs queries through a traced runtime and
// checks the span pipeline end to end: every phase timestamped, the
// chosen unit recorded, cache activity counted, and the lifecycle
// outcome set.
func TestTraceSpansCaptured(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := fastLiveConfig(2)
	cfg.TraceBuffer = 64
	r, err := New(g, cfg, sched.NewBaseline(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.TraceEnabled() {
		t.Fatal("TraceEnabled() = false with TraceBuffer set")
	}

	const n = 10
	for i := 0; i < n; i++ {
		resp, err := r.Do(traverse.Query{Op: traverse.OpBFS, Start: graph.VertexID(i), Depth: 2, MaxVisits: 100})
		if err != nil || resp.Err != nil {
			t.Fatalf("query %d: %v / %v", i, err, resp.Err)
		}
	}

	spans := r.Trace(n)
	if len(spans) != n {
		t.Fatalf("got %d spans, want %d", len(spans), n)
	}
	for _, s := range spans {
		if s.Outcome != obs.OutcomeCompleted {
			t.Errorf("span %d outcome = %q", s.QueryID, s.Outcome)
		}
		if s.Op != "bfs" {
			t.Errorf("span %d op = %q", s.QueryID, s.Op)
		}
		if s.Unit < 0 || s.Unit >= 2 {
			t.Errorf("span %d unit = %d", s.QueryID, s.Unit)
		}
		if s.SubmitNanos == 0 || s.ScheduleNanos < s.SubmitNanos ||
			s.StartNanos < s.ScheduleNanos || s.EndNanos < s.StartNanos {
			t.Errorf("span %d timestamps out of order: %+v", s.QueryID, s)
		}
		if s.ExecNanos <= 0 {
			t.Errorf("span %d exec = %d", s.QueryID, s.ExecNanos)
		}
		if s.CacheHits+s.CacheMisses == 0 {
			t.Errorf("span %d saw no cache activity", s.QueryID)
		}
	}
	// Sequential queries on a cold cache must read bytes somewhere.
	var bytes int64
	for _, s := range spans {
		bytes += s.BytesRead
	}
	if bytes == 0 {
		t.Error("no span recorded bytes read")
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	r, err := New(g, fastLiveConfig(1), sched.NewBaseline(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.TraceEnabled() {
		t.Error("TraceEnabled() = true without TraceBuffer")
	}
	if _, err := r.Do(traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 1}); err != nil {
		t.Fatal(err)
	}
	if spans := r.Trace(10); spans != nil {
		t.Errorf("Trace returned %d spans with tracing off", len(spans))
	}
}

func TestNegativeTraceBufferRejected(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := fastLiveConfig(1)
	cfg.TraceBuffer = -1
	if _, err := New(g, cfg, sched.NewBaseline(1)); err == nil {
		t.Error("negative TraceBuffer should fail validation")
	}
}

// TestRegistryExposesConservation scrapes the runtime's registry and
// checks the lifecycle counters CI's smoke test asserts on: the
// conservation invariant submitted = completed + rejected + timed-out
// is visible on /metrics, as are per-unit cache series.
func TestRegistryExposesConservation(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	r, err := New(g, fastLiveConfig(2), sched.NewBaseline(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const n = 8
	for i := 0; i < n; i++ {
		if _, err := r.Do(traverse.Query{Op: traverse.OpBFS, Start: graph.VertexID(i), Depth: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := r.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"subtrav_queries_submitted_total 8",
		"subtrav_queries_completed_total 8",
		"subtrav_queries_rejected_total 0",
		"subtrav_queries_timed_out_total 0",
		`subtrav_unit_cache_hits_total{unit="0"}`,
		`subtrav_unit_cache_misses_total{unit="0"}`,
		`subtrav_unit_completed_total{unit="1"}`,
		"subtrav_query_latency_nanos_count 8",
		"subtrav_disk_wait_nanos",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestStatsCacheCounters checks the per-unit hit/miss totals surfaced
// through Stats (and from there the wire protocol and -watch).
func TestStatsCacheCounters(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	r, err := New(g, fastLiveConfig(2), sched.NewBaseline(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 12; i++ {
		if _, err := r.Do(traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 2, MaxVisits: 100}); err != nil {
			t.Fatal(err)
		}
	}
	var hits, misses int64
	for _, u := range r.Stats() {
		hits += u.CacheHits
		misses += u.CacheMisses
		if u.CacheHits > 0 || u.CacheMisses > 0 {
			if hr := u.HitRate(); hr < 0 || hr > 1 {
				t.Errorf("unit %d hit rate %g out of range", u.Unit, hr)
			}
		}
	}
	if misses == 0 {
		t.Error("cold cache recorded no misses")
	}
	// The same anchor re-traversed from a warm cache must hit.
	if hits == 0 {
		t.Error("repeated identical traversals recorded no cache hits")
	}
}
