package live

import (
	"context"
	"errors"
	"testing"
	"time"

	"subtrav/internal/faultpoint"
	"subtrav/internal/graph"
	"subtrav/internal/sched"
	"subtrav/internal/sim"
	"subtrav/internal/traverse"
)

// slowLiveConfig makes every cache miss pay a real multi-millisecond
// sleep, so deadlines can expire mid-traversal deterministically.
func slowLiveConfig(units int) Config {
	cost := sim.DefaultCostModel()
	cost.Disk.SeekNanos = 5_000_000 // 5 ms per miss at TimeScale 1
	cost.Disk.Channels = 1
	return Config{
		NumUnits:      units,
		MemoryPerUnit: 256 << 10,
		Cost:          cost,
		TimeScale:     1,
	}
}

func TestDeadlineCancelsMidTraversal(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	r, err := New(g, slowLiveConfig(1), sched.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	start := time.Now()
	// ~40 misses × 5 ms each ≫ the 15 ms deadline.
	resp, err := r.DoCtx(ctx, traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 3, MaxVisits: 40})
	elapsed := time.Since(start)
	if err != nil {
		// DoCtx may return the bare context error if the runtime had
		// not yet delivered the response; both shapes are in-contract.
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("DoCtx error = %v", err)
		}
	} else if !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("response error = %v, want deadline exceeded", resp.Err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v; deadline not observed mid-traversal", elapsed)
	}

	// The drop lands in metrics once the runtime resolves the task.
	deadline := time.Now().Add(5 * time.Second)
	for r.Metrics().TimedOut == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if m := r.Metrics(); m.TimedOut != 1 {
		t.Fatalf("TimedOut = %d, want 1 (%v)", m.TimedOut, m)
	}

	// The unit is reusable: a fresh query completes normally.
	resp, err = r.Do(traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 1, MaxVisits: 5})
	if err != nil || resp.Err != nil {
		t.Fatalf("unit not reusable after cancellation: %v / %v", err, resp.Err)
	}
	if m := r.Metrics(); m.Completed != 1 || !m.Conserved() {
		t.Errorf("metrics after reuse: %v", m)
	}
}

func TestDefaultDeadlineApplies(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := slowLiveConfig(1)
	cfg.DefaultDeadline = 10 * time.Millisecond
	r, err := New(g, cfg, sched.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	resp, err := r.Do(traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 3, MaxVisits: 40})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("response error = %v, want default deadline to fire", resp.Err)
	}
	if m := r.Metrics(); m.TimedOut != 1 {
		t.Errorf("TimedOut = %d, want 1", m.TimedOut)
	}
}

func TestBackpressureRejectsWithRetryAfter(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := slowLiveConfig(1)
	cfg.QueueCap = 1
	cfg.MaxPending = 2
	r, err := New(g, cfg, sched.NewLeastLoaded())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	q := traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 2, MaxVisits: 20}
	var accepted []<-chan Response
	var rejections int
	for i := 0; i < 10; i++ {
		ch, err := r.Submit(q)
		switch {
		case err == nil:
			accepted = append(accepted, ch)
		case errors.Is(err, ErrQueueFull):
			rejections++
			var rej *RejectedError
			if !errors.As(err, &rej) {
				t.Fatalf("queue-full error is not *RejectedError: %T", err)
			}
			if rej.RetryAfter <= 0 {
				t.Errorf("RetryAfter = %v, want > 0", rej.RetryAfter)
			}
			if rej.InFlight < cfg.MaxPending {
				t.Errorf("InFlight = %d at rejection, want >= %d", rej.InFlight, cfg.MaxPending)
			}
		default:
			t.Fatalf("Submit: %v", err)
		}
		if got := r.InFlight(); got > cfg.MaxPending {
			t.Fatalf("in-flight %d exceeds MaxPending %d", got, cfg.MaxPending)
		}
	}
	if rejections == 0 {
		t.Fatal("no rejections with MaxPending=2 and 10 instant submissions")
	}
	for i, ch := range accepted {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Errorf("accepted query %d failed: %v", i, resp.Err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("accepted query %d never resolved", i)
		}
	}
	m := r.Metrics()
	if int(m.Rejected) != rejections {
		t.Errorf("Rejected = %d, want %d", m.Rejected, rejections)
	}
	if !m.Conserved() {
		t.Errorf("not conserved: %v", m)
	}
}

func TestRejectedSubmitSucceedsAfterBackoff(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := slowLiveConfig(1)
	cfg.QueueCap = 1
	cfg.MaxPending = 1
	r, err := New(g, cfg, sched.NewLeastLoaded())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	q := traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 1, MaxVisits: 5}
	first, err := r.Submit(q)
	if err != nil {
		t.Fatal(err)
	}
	// Saturated: the next submit must be rejected, then succeed after
	// backing off per the hint.
	var rej *RejectedError
	if _, err := r.Submit(q); !errors.As(err, &rej) {
		t.Fatalf("second submit = %v, want rejection", err)
	}
	var second <-chan Response
	for attempt := 0; attempt < 200; attempt++ {
		time.Sleep(rej.RetryAfter)
		ch, err := r.Submit(q)
		if err == nil {
			second = ch
			break
		}
		if !errors.Is(err, ErrQueueFull) {
			t.Fatal(err)
		}
	}
	if second == nil {
		t.Fatal("retry never admitted")
	}
	for _, ch := range []<-chan Response{first, second} {
		if resp := <-ch; resp.Err != nil {
			t.Errorf("query failed: %v", resp.Err)
		}
	}
}

func TestDiskFaultTransientErrorIsRetried(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := fastLiveConfig(2)
	// Every 5th disk read errors transiently; the immediate internal
	// retry hits a clean ordinal, so queries still succeed.
	cfg.Faults = faultpoint.NewSet(1).Add(faultpoint.DiskRead, faultpoint.Rule{
		Every: 5, Err: errors.New("injected disk error"),
	})
	r, err := New(g, cfg, sched.NewLeastLoaded())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 20; i++ {
		resp, err := r.Do(traverse.Query{Op: traverse.OpBFS, Start: graph.VertexID(i * 7 % 500), Depth: 2, MaxVisits: 40})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Err != nil {
			t.Fatalf("query %d failed despite retry: %v", i, resp.Err)
		}
	}
	m := r.Metrics()
	if m.DiskFaultRetries == 0 {
		t.Error("no disk-fault retries recorded; fault schedule never fired")
	}
	if m.Failed != 0 {
		t.Errorf("Failed = %d, want 0 (single faults are absorbed)", m.Failed)
	}
}

// TestDiskFaultPersistentErrorFailsQuery: a disk read that fails past
// its internal retry fails the query it was read for, exactly once,
// whether its charge folds every read into one sleep (a channel per
// unit: "solo") or waits on a disk slot for each, and the unit goes on
// to the next query.
func TestDiskFaultPersistentErrorFailsQuery(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	for _, tc := range []struct {
		name     string
		channels int
	}{
		{"solo", 16},
		{"disk slot", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastLiveConfig(1)
			cfg.Cost.Disk.Channels = tc.channels
			injected := errors.New("dead disk")
			cfg.Faults = faultpoint.NewSet(1).Add(faultpoint.DiskRead, faultpoint.Rule{Every: 1, Err: injected})
			r, err := New(g, cfg, sched.NewRoundRobin())
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if (r.diskSlot != nil) != (tc.channels == 0) {
				t.Fatalf("fixture: %d channels for one unit, slot built = %t", tc.channels, r.diskSlot != nil)
			}
			const n = 2
			for i := 0; i < n; i++ {
				q := traverse.Query{Op: traverse.OpBFS, Start: graph.VertexID(i), Depth: 2, MaxVisits: 40}
				if resp, err := r.Do(q); err != nil || !errors.Is(resp.Err, injected) {
					t.Fatalf("query %d error = %v / %v, want injected disk error", i, err, resp.Err)
				}
			}
			m := r.Metrics()
			if m.Failed != n || m.Completed != n {
				t.Errorf("metrics = %v, want every failure to count as a completion", m)
			}
			if !m.Conserved() {
				t.Errorf("not conserved: %v", m)
			}
		})
	}
}

func TestDiskLatencySpikeSlowsButCompletes(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := fastLiveConfig(2)
	cfg.Faults = faultpoint.NewSet(3).Add(faultpoint.DiskRead, faultpoint.Rule{
		Every: 3, Delay: 2 * time.Millisecond,
	})
	r, err := New(g, cfg, sched.NewLeastLoaded())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	resp, err := r.Do(traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 2, MaxVisits: 30})
	if err != nil || resp.Err != nil {
		t.Fatalf("query failed under latency spikes: %v / %v", err, resp.Err)
	}
	if cfg.Faults.Fired(faultpoint.DiskRead) == 0 {
		t.Error("no spikes fired")
	}
}

func TestStalledUnitDropsExpiredTaskAtDequeue(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := fastLiveConfig(1)
	cfg.Faults = faultpoint.NewSet(1).Add(faultpoint.Dequeue, faultpoint.Rule{
		Every: 1, Delay: 30 * time.Millisecond,
	})
	r, err := New(g, cfg, sched.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	ch, err := r.SubmitCtx(ctx, traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 1, MaxVisits: 5})
	if err != nil {
		t.Fatal(err)
	}
	resp := <-ch
	if !errors.Is(resp.Err, context.DeadlineExceeded) {
		t.Fatalf("response error = %v, want deadline (task expired during unit stall)", resp.Err)
	}
	if m := r.Metrics(); m.TimedOut != 1 || !m.Conserved() {
		t.Errorf("metrics = %v", m)
	}
}

func TestSchedulerStallsDegradeToFallback(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := fastLiveConfig(2)
	cfg.SchedTimeout = time.Millisecond
	cfg.Faults = faultpoint.NewSet(1).Add(faultpoint.SchedRound, faultpoint.Rule{
		Every: 1, Delay: 3 * time.Millisecond, // every round blows the budget
	})
	r, err := New(g, cfg, sched.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 30; i++ {
		resp, err := r.Do(traverse.Query{Op: traverse.OpBFS, Start: graph.VertexID(i % 100), Depth: 1, MaxVisits: 10})
		if err != nil || resp.Err != nil {
			t.Fatalf("query %d failed under scheduler stalls: %v / %v", i, err, resp.Err)
		}
	}
	m := r.Metrics()
	if m.DegradedRounds == 0 {
		t.Errorf("DegradedRounds = 0 after %d slow rounds (%v)", cfg.Faults.Hits(faultpoint.SchedRound), m)
	}
	if m.Completed != 30 || !m.Conserved() {
		t.Errorf("metrics = %v", m)
	}
}

func TestSchedulerFaultErrorUsesFallbackRound(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := fastLiveConfig(2)
	cfg.SchedTimeout = time.Second // generous: only the injected error should degrade
	cfg.Faults = faultpoint.NewSet(1).Add(faultpoint.SchedRound, faultpoint.Rule{
		Every: 1, Err: errors.New("auction wedged"),
	})
	r, err := New(g, cfg, sched.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 10; i++ {
		if resp, err := r.Do(traverse.Query{Op: traverse.OpBFS, Start: graph.VertexID(i), Depth: 1, MaxVisits: 10}); err != nil || resp.Err != nil {
			t.Fatalf("query %d: %v / %v", i, err, resp.Err)
		}
	}
	if m := r.Metrics(); m.DegradedRounds == 0 {
		t.Errorf("faulted rounds did not use fallback: %v", m)
	}
}

func TestFaultConfigValidation(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	for _, mutate := range []func(*Config){
		func(c *Config) { c.MaxPending = -1 },
		func(c *Config) { c.DefaultDeadline = -time.Second },
		func(c *Config) { c.SchedTimeout = -time.Second },
	} {
		cfg := fastLiveConfig(1)
		mutate(&cfg)
		if _, err := New(g, cfg, sched.NewRoundRobin()); err == nil {
			t.Errorf("invalid config accepted: %+v", cfg)
		}
	}
}
