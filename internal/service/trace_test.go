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
