package live

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"subtrav/internal/faultpoint"
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

// TestUnitCacheCountersAtQuiescence: the per-unit cache series are
// advanced once per charge from the charge cursor instead of once per
// access from inside the buffer, so at quiescence they must still be
// the buffer's own stats and the sums over the unit's spans on every
// way out of a charge, a disk slot's included.
func TestUnitCacheCountersAtQuiescence(t *testing.T) {
	t.Parallel()
	chargeExits(t, true, func(t *testing.T, r *Runtime) {
		t.Helper()
		type sums struct{ hits, misses, bytes int64 }
		bySpan := map[int32]sums{}
		for _, s := range r.Trace(r.obs.ring.Cap()) {
			if s.Unit < 0 {
				continue
			}
			u := bySpan[s.Unit]
			u.hits += int64(s.CacheHits)
			u.misses += int64(s.CacheMisses)
			u.bytes += s.BytesRead
			bySpan[s.Unit] = u
		}
		stats := r.Stats()
		for i, u := range r.units {
			want := u.buffer.Stats()
			c := u.cacheCounters
			if c.hits.Value() != want.Hits || c.misses.Value() != want.Misses ||
				c.evictions.Value() != want.Evictions || c.bytes.Value() != want.BytesLoaded {
				t.Errorf("unit %d: counters hits=%d misses=%d evictions=%d bytes=%d, buffer %+v", i,
					c.hits.Value(), c.misses.Value(), c.evictions.Value(), c.bytes.Value(), want)
			}
			if got := bySpan[u.id]; got != (sums{want.Hits, want.Misses, want.BytesLoaded}) {
				t.Errorf("unit %d: spans sum to %+v, buffer %+v", i, got, want)
			}
			if stats[i].CacheHits != want.Hits || stats[i].CacheMisses != want.Misses {
				t.Errorf("unit %d: Stats() reports %d/%d, buffer %+v", i, stats[i].CacheHits, stats[i].CacheMisses, want)
			}
		}
	})
}

// chargeExits drives a runtime out of a charge every way there is —
// completion, a query cancelled in its charge's wait, and a disk read
// that fails past its retry — and hands it to check once quiescent,
// when the workers' buffers are safe to read. Neither runtime has fewer
// disk channels than units, so a charge waits once. With slot set, a
// third runtime, with one disk slot, cancels a query between the reads
// it waits on the slot for.
func chargeExits(t *testing.T, slot bool, check func(*testing.T, *Runtime)) {
	g := liveGraph(t)
	query := func(i int) traverse.Query {
		return traverse.Query{Op: traverse.OpBFS, Start: graph.VertexID(i * 7 % 500), Depth: 2, MaxVisits: 40}
	}
	t.Run("completed and cancelled", func(t *testing.T) {
		cfg := slowLiveConfig(1)
		cfg.Cost.Disk.SeekNanos = 1_000_000
		cfg.MemoryPerUnit = 32 << 10 // holds one query's records, not two's
		cfg.TraceBuffer = 64
		// A rule that fires on no reachable hit: its Hits count the disk
		// reads begun, while subtrav_disk_wait_nanos advances only once a
		// charge ends.
		cfg.Faults = faultpoint.NewSet(1).Add(faultpoint.DiskRead, faultpoint.Rule{Every: math.MaxInt64})
		r, err := New(g, cfg, sched.NewRoundRobin())
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for _, i := range []int{0, 0, 1, 2} {
			if resp, err := r.Do(query(i)); err != nil || resp.Err != nil {
				t.Fatalf("query %d: %v / %v", i, err, resp.Err)
			}
		}
		// Cancel the next query once its disk reads have begun. Nothing
		// splits a solo charge on a disk with a channel per unit, so it
		// loads every record of its trace and is cancelled in the one
		// sleep that holds their service time, or just before it.
		reads := cfg.Faults.Hits(faultpoint.DiskRead)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ch, err := r.SubmitCtx(ctx, query(5))
		if err != nil {
			t.Fatal(err)
		}
		for cfg.Faults.Hits(faultpoint.DiskRead) < reads+2 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
		if resp := <-ch; !errors.Is(resp.Err, context.Canceled) {
			t.Fatalf("cancelled query resolved with %v", resp.Err)
		}
		if resp, err := r.Do(query(1)); err != nil || resp.Err != nil {
			t.Fatalf("query after cancellation: %v / %v", err, resp.Err)
		}
		r.Close()
		check(t, r)
		spans := r.Trace(64)
		_, trace, err := traverse.Execute(g, query(5))
		if err != nil {
			t.Fatal(err)
		}
		if s := spans[len(spans)-2]; s.Outcome != obs.OutcomeTimeout || s.CacheMisses == 0 ||
			s.CacheHits+s.CacheMisses != len(trace.Accesses) {
			t.Errorf("cancelled query's span: %s, want a timeout that had charged all %d accesses", s, len(trace.Accesses))
		}
		if st := r.units[0].buffer.Stats(); st.Evictions == 0 || st.Hits == 0 {
			t.Errorf("fixture too easy: %+v", st)
		}
	})
	t.Run("failed disk read", func(t *testing.T) {
		cfg := fastLiveConfig(2)
		cfg.TraceBuffer = 64
		// A read fails for good when its retry fires too: about one in
		// eleven at this rate, after the query has loaded other records.
		cfg.Faults = faultpoint.NewSet(1).Add(faultpoint.DiskRead, faultpoint.Rule{
			Prob: 0.3, Err: errors.New("injected disk error"),
		})
		r, err := New(g, cfg, sched.NewLeastLoaded())
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for i := 0; i < 20; i++ {
			if _, err := r.Do(query(i)); err != nil {
				t.Fatal(err)
			}
		}
		if m := r.Metrics(); m.Failed == 0 || m.Failed == m.Completed {
			t.Errorf("fixture: %d of %d queries failed, want some of each", m.Failed, m.Completed)
		}
		r.Close()
		check(t, r)
	})
	if !slot {
		return
	}
	t.Run("cancelled on a disk slot", func(t *testing.T) {
		cfg := slowLiveConfig(1)
		cfg.Cost.Disk.Channels = 0 // one slot, which every read waits on
		cfg.Cost.Disk.SeekNanos = 1_000_000
		cfg.MemoryPerUnit = 32 << 10
		cfg.TraceBuffer = 64
		cfg.Faults = faultpoint.NewSet(1).Add(faultpoint.DiskRead, faultpoint.Rule{Every: math.MaxInt64})
		r, err := New(g, cfg, sched.NewRoundRobin())
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.diskSlot == nil {
			t.Fatal("fixture: no slot was built")
		}
		if resp, err := r.Do(query(0)); err != nil || resp.Err != nil {
			t.Fatalf("query 0: %v / %v", err, resp.Err)
		}
		// Cancel the next query once its second read has begun: its first
		// record is loaded, so its span must carry that work.
		reads := cfg.Faults.Hits(faultpoint.DiskRead)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ch, err := r.SubmitCtx(ctx, query(5))
		if err != nil {
			t.Fatal(err)
		}
		for cfg.Faults.Hits(faultpoint.DiskRead) < reads+2 {
			select {
			case resp := <-ch:
				t.Fatalf("fixture: query resolved before its second read: %+v", resp)
			case <-time.After(100 * time.Microsecond):
			}
		}
		cancel()
		if resp := <-ch; !errors.Is(resp.Err, context.Canceled) || !strings.Contains(resp.Err.Error(), "cancelled mid-traversal") {
			t.Fatalf("cancelled query resolved with %v, want cancelled mid-traversal", resp.Err)
		}
		if resp, err := r.Do(query(1)); err != nil || resp.Err != nil {
			t.Fatalf("query after cancellation: %v / %v", err, resp.Err)
		}
		r.Close()
		check(t, r)
		spans := r.Trace(64)
		if s := spans[len(spans)-2]; s.Outcome != obs.OutcomeTimeout || s.CacheMisses == 0 {
			t.Errorf("cancelled query's span: %s, want a timeout that kept the records it loaded", s)
		}
	})
}
