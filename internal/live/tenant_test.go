package live

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"subtrav/internal/sched"
	"subtrav/internal/sim"
	"subtrav/internal/traverse"
)

// TestTenantShareCapsFloodingTenant is the regression test for the
// harness-exposed defect: without per-tenant admission accounting, one
// flooding tenant consumes the whole MaxPending budget and a
// well-behaved tenant is rejected alongside it. With TenantShare set,
// the flooder is capped at its share and the second tenant still
// admits.
func TestTenantShareCapsFloodingTenant(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := slowLiveConfig(1)
	cfg.QueueCap = 16
	cfg.MaxPending = 8
	cfg.TenantShare = 0.25 // per-tenant cap = ceil(0.25·8) = 2
	r, err := New(g, cfg, sched.NewLeastLoaded())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	q := traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 2, MaxVisits: 20}
	var accepted []<-chan Response
	var tenantRejections int
	for i := 0; i < 10; i++ {
		ch, err := r.SubmitTenantCtx(nil, "flooder", q)
		switch {
		case err == nil:
			accepted = append(accepted, ch)
		case errors.Is(err, ErrQueueFull):
			var rej *RejectedError
			if !errors.As(err, &rej) {
				t.Fatalf("rejection is not *RejectedError: %T", err)
			}
			if !rej.TenantLimited {
				t.Errorf("rejection %d not TenantLimited (global pool should have room)", i)
			}
			if rej.Tenant != "flooder" {
				t.Errorf("rejection tenant = %q, want flooder", rej.Tenant)
			}
			if rej.InFlight < 2 {
				t.Errorf("tenant InFlight = %d at rejection, want >= 2", rej.InFlight)
			}
			if rej.RetryAfter <= 0 {
				t.Errorf("RetryAfter = %v, want > 0", rej.RetryAfter)
			}
			tenantRejections++
		default:
			t.Fatalf("SubmitTenantCtx: %v", err)
		}
	}
	if tenantRejections == 0 {
		t.Fatal("no tenant-limited rejections with share cap 2 and 10 instant submissions")
	}
	if len(accepted) > 2 {
		t.Fatalf("flooder admitted %d queries, share cap is 2", len(accepted))
	}

	// The flooder is at its cap, but a second tenant must still admit:
	// the global pool (MaxPending 8) has room.
	ch, err := r.SubmitTenantCtx(nil, "modest", q)
	if err != nil {
		t.Fatalf("second tenant rejected while global pool has room: %v", err)
	}
	accepted = append(accepted, ch)

	for i, ch := range accepted {
		if resp := <-ch; resp.Err != nil {
			t.Fatalf("accepted query %d: %v", i, resp.Err)
		}
	}

	// Per-tenant conservation: submitted = completed + rejected +
	// timed-out within each bucket, mirroring the global invariant.
	for _, ts := range r.TenantStatsSnapshot() {
		if ts.Submitted != ts.Completed+ts.Rejected+ts.TimedOut {
			t.Errorf("tenant %q: submitted %d != completed %d + rejected %d + timed-out %d",
				ts.Tenant, ts.Submitted, ts.Completed, ts.Rejected, ts.TimedOut)
		}
		if ts.InFlight != 0 {
			t.Errorf("tenant %q: inflight = %d at quiescence", ts.Tenant, ts.InFlight)
		}
	}
	m := r.Metrics()
	if m.Submitted != m.Completed+m.Rejected+m.TimedOut {
		t.Errorf("global conservation violated: %+v", m)
	}
}

// TestTenantSeriesOnMetrics checks the per-tenant series reach the
// exposition with the tenant label, and that untenanted traffic lands
// in the default bucket.
func TestTenantSeriesOnMetrics(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	r, err := New(g, fastLiveConfig(2), sched.NewLeastLoaded())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	q := traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 2, MaxVisits: 20}
	for i := 0; i < 3; i++ {
		ch, err := r.SubmitTenantCtx(nil, "acme", q)
		if err != nil {
			t.Fatal(err)
		}
		<-ch
	}
	if _, err := r.Do(q); err != nil { // untenanted → default bucket
		t.Fatal(err)
	}

	var b strings.Builder
	if err := r.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`subtrav_tenant_submitted_total{tenant="acme"} 3`,
		`subtrav_tenant_completed_total{tenant="acme"} 3`,
		`subtrav_tenant_submitted_total{tenant="default"} 1`,
		`subtrav_tenant_inflight{tenant="acme"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTenantCardinalityBounded floods the runtime with distinct tenant
// names and checks both the accounting map and the metric label set
// stay bounded: everything past the cap folds into one overflow
// bucket.
func TestTenantCardinalityBounded(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	r, err := New(g, fastLiveConfig(2), sched.NewLeastLoaded())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	q := traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 1, MaxVisits: 5}
	var chans []<-chan Response
	for i := 0; i < 4*sim.MaxTenants; i++ {
		ch, err := r.SubmitTenantCtx(nil, fmt.Sprintf("tenant-%03d", i), q)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		<-ch
	}

	// At most sim.MaxTenants named buckets plus the one overflow
	// bucket.
	stats := r.TenantStatsSnapshot()
	if len(stats) > sim.MaxTenants+1 {
		t.Fatalf("tenant buckets = %d, want <= %d", len(stats), sim.MaxTenants+1)
	}
	var overflow *TenantStats
	var total int64
	for i := range stats {
		total += stats[i].Submitted
		if stats[i].Tenant == sim.OverflowTenant {
			overflow = &stats[i]
		}
	}
	if overflow == nil {
		t.Fatal("no overflow bucket after exceeding the tenant cap")
	}
	if want := int64(4*sim.MaxTenants - sim.MaxTenants); overflow.Submitted != want {
		t.Errorf("overflow submitted = %d, want %d", overflow.Submitted, want)
	}
	if total != int64(4*sim.MaxTenants) {
		t.Errorf("total submitted across buckets = %d, want %d", total, 4*sim.MaxTenants)
	}

	var b strings.Builder
	if err := r.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "subtrav_tenant_submitted_total{"); n > sim.MaxTenants+1 {
		t.Errorf("exposition has %d tenant series, want <= %d", n, sim.MaxTenants+1)
	}
}

// TestImbalanceAndHitRatioSeries checks the balance-side tradeoff
// telemetry reaches /metrics: the per-round imbalance factor (gauge +
// distribution) and the per-unit cache hit ratio.
func TestImbalanceAndHitRatioSeries(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	r, err := New(g, fastLiveConfig(2), sched.NewLeastLoaded())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	q := traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 2, MaxVisits: 50}
	for i := 0; i < 8; i++ {
		if _, err := r.Do(q); err != nil {
			t.Fatal(err)
		}
	}
	if v := r.obs.imbalance.Value(); v < 1 {
		t.Errorf("imbalance factor = %g, want >= 1", v)
	}
	if n := r.obs.imbalanceMilli.Count(); n == 0 {
		t.Error("imbalance distribution recorded no rounds")
	}
	var b strings.Builder
	if err := r.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"subtrav_sched_imbalance_factor ",
		"subtrav_sched_imbalance_milli_count ",
		`subtrav_unit_cache_hit_ratio{unit="0"}`,
		`subtrav_unit_cache_hit_ratio{unit="1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
