package service

import (
	"reflect"
	"strings"
	"testing"

	"subtrav/internal/obs"
)

// TestTraceRPC exercises KindTrace end to end: run queries, fetch the
// span ring over the wire, and check that every field of every span
// arrives as the runtime holds it.
func TestTraceRPC(t *testing.T) {
	t.Parallel()
	rt, client, stop := startServiceRuntime(t)
	defer stop()

	const n = 6
	for i := 0; i < n; i++ {
		if _, err := client.Do(WireQuery{Op: "bfs", Start: int32(i), Depth: 1}); err != nil {
			t.Fatal(err)
		}
	}
	spans, err := client.Trace(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != n {
		t.Fatalf("got %d spans, want %d", len(spans), n)
	}
	if want := rt.Trace(n); !reflect.DeepEqual(spans, want) {
		t.Errorf("spans over the wire differ from the runtime's:\n got %+v\nwant %+v", spans, want)
	}
	for _, s := range spans {
		if s.Op != "bfs" || s.Outcome != obs.OutcomeCompleted {
			t.Errorf("span %d: op=%q outcome=%q", s.QueryID, s.Op, s.Outcome)
		}
		if s.Unit < 0 || s.Unit >= 4 {
			t.Errorf("span %d unit = %d", s.QueryID, s.Unit)
		}
		if s.ExecNanos <= 0 {
			t.Errorf("span %d exec = %d", s.QueryID, s.ExecNanos)
		}
	}

	// Asking for fewer spans truncates to the most recent.
	few, err := client.Trace(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(few) != 2 {
		t.Fatalf("Trace(2) returned %d spans", len(few))
	}
	if few[1].QueryID != spans[n-1].QueryID {
		t.Errorf("Trace(2) newest = %d, want %d", few[1].QueryID, spans[n-1].QueryID)
	}
}

// TestReplyDurationsAreItsSpans: a reply's wait and exec are its span's
// to the nanosecond, so a trace joins to the replies it describes on
// (Unit, WaitNanos, ExecNanos). One query in flight at a time puts the
// spans in reply order.
func TestReplyDurationsAreItsSpans(t *testing.T) {
	t.Parallel()
	client, stop := startService(t)
	defer stop()

	var replies []Reply
	for i := 0; i < 8; i++ {
		op := []string{"bfs", "sssp", "collab", "rwr"}[i%4]
		r, err := client.Do(WireQuery{Op: op, Start: int32(i), Target: int32(i + 9), Depth: 3, MaxVisits: 60, Steps: 40, TopK: 3})
		if err != nil {
			t.Fatal(err)
		}
		replies = append(replies, r)
	}
	spans, err := client.Trace(len(replies))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != len(replies) {
		t.Fatalf("got %d spans for %d replies", len(spans), len(replies))
	}
	for i, r := range replies {
		s := spans[i]
		if r.Unit != s.Unit || r.WaitNanos != s.WaitNanos || r.ExecNanos != s.ExecNanos || r.ExecNanos <= 0 {
			t.Errorf("query %d: reply unit %d wait %d exec %d, span unit %d wait %d exec %d",
				i, r.Unit, r.WaitNanos, r.ExecNanos, s.Unit, s.WaitNanos, s.ExecNanos)
		}
	}
}

// TestTenantTravelsOverWire checks WireQuery.Tenant reaches the
// runtime's per-tenant accounting and comes back on trace spans with
// the scheduling detail beside it.
func TestTenantTravelsOverWire(t *testing.T) {
	t.Parallel()
	client, stop := startService(t)
	defer stop()

	if _, err := client.Do(WireQuery{Op: "bfs", Start: 1, Depth: 1, Tenant: "acme"}); err != nil {
		t.Fatal(err)
	}
	spans, err := client.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Tenant != "acme" {
		t.Errorf("span tenant = %q, want acme", s.Tenant)
	}
	if s.Imbalance < 1 {
		t.Errorf("span imbalance = %g, want >= 1", s.Imbalance)
	}
	if !strings.Contains(s.CSVRow(), ",acme,") {
		t.Errorf("CSV row missing tenant column: %s", s.CSVRow())
	}
}

// TestStatsCarriesCacheCounters checks that the Stats RPC exposes the
// per-unit cache hit/miss totals -watch renders.
func TestStatsCarriesCacheCounters(t *testing.T) {
	t.Parallel()
	client, stop := startService(t)
	defer stop()
	for i := 0; i < 10; i++ {
		if _, err := client.Do(WireQuery{Op: "bfs", Start: 3, Depth: 2, MaxVisits: 100}); err != nil {
			t.Fatal(err)
		}
	}
	reply, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var hits, misses int64
	for _, u := range reply.Units {
		hits += u.CacheHits
		misses += u.CacheMisses
		if hr := u.HitRate(); hr < 0 || hr > 1 {
			t.Errorf("unit %d hit rate %g", u.Unit, hr)
		}
	}
	if misses == 0 {
		t.Error("no cache misses reported over the wire")
	}
	if hits == 0 {
		t.Error("repeated identical queries reported no cache hits")
	}
}
