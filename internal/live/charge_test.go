package live

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"subtrav/internal/cache"
	"subtrav/internal/faultpoint"
	"subtrav/internal/graph"
	"subtrav/internal/obs"
	"subtrav/internal/sched"
	"subtrav/internal/sim"
	"subtrav/internal/storage"
	"subtrav/internal/traverse"
)

// TestFreeDiskSlotIsZeroWait: a unit has one read in flight at a time,
// so with one unit every slot it asks for is free. A free slot is a
// wait of exactly zero — the gap between two clock reads is not
// queueing — and it is still observed once per read.
func TestFreeDiskSlotIsZeroWait(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	const n = 12
	cfg := fastLiveConfig(1)
	cfg.Cost.Disk.Channels = 0 // fewer channels than units: one slot
	cfg.MemoryPerUnit = 32 << 10
	cfg.TimeScale = 1e-12 // every modelled sleep rounds to zero
	cfg.TraceBuffer = n
	r, err := New(g, cfg, sched.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < n; i++ {
		q := traverse.Query{Op: traverse.OpBFS, Start: graph.VertexID(i * 7 % 500), Depth: 2, MaxVisits: 40}
		if resp, err := r.Do(q); err != nil || resp.Err != nil {
			t.Fatalf("query %d: %v / %v", i, err, resp.Err)
		}
	}
	r.Close()

	spans := r.Trace(n)
	if len(spans) != n {
		t.Fatalf("got %d spans, want %d", len(spans), n)
	}
	var misses int64
	for _, s := range spans {
		misses += int64(s.CacheMisses)
		if s.DiskWaitNanos != 0 {
			t.Errorf("%s: DiskWaitNanos = %d on a free slot, want 0", s, s.DiskWaitNanos)
		}
	}
	if misses == 0 {
		t.Fatal("fixture: no query missed")
	}
	h := r.obs.diskWaitNanos
	if h.Sum() != 0 {
		t.Errorf("subtrav_disk_wait_nanos sum = %d, want 0", h.Sum())
	}
	if h.Count() != misses {
		t.Errorf("subtrav_disk_wait_nanos count = %d, want one per read (%d)", h.Count(), misses)
	}
}

// TestFreeDiskSlotFetchAllocatesNothing guards the per-miss wait a
// query takes on a disk with fewer channels than units: a free slot,
// and a sleep that rounds to zero.
func TestFreeDiskSlotFetchAllocatesNothing(t *testing.T) {
	g := liveGraph(t)
	cfg := fastLiveConfig(1)
	cfg.Cost.Disk.Channels = 0
	cfg.TimeScale = 1e-12
	r, err := New(g, cfg, sched.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.diskSlot == nil {
		t.Fatal("0 channels, one unit: no slot built")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	service, _, err := r.diskRead(4096)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := r.diskFetch(r.units[0], ctx, service, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("diskFetch on a free slot: %g allocations, want 0", allocs)
	}
}

// TestColdChargeAllocatesNothing guards the charge a scan-heavy query
// takes thousands of misses through, with no slot (every read folded
// into the one sleep) and with a free one (every read a wait of its
// own): the buffer is flushed before each charge and holds less than
// the trace, so every record misses and the charge evicts.
func TestColdChargeAllocatesNothing(t *testing.T) {
	g := liveGraph(t)
	for _, channels := range []int{16, 0} {
		cfg := fastLiveConfig(1)
		cfg.Cost.Disk.Channels = channels
		cfg.MemoryPerUnit = 16 << 10
		cfg.TimeScale = 1e-12
		r, err := New(g, cfg, sched.NewRoundRobin())
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if (r.diskSlot == nil) != (channels > 0) {
			t.Fatalf("%d channels, one unit: slot built = %t", channels, r.diskSlot != nil)
		}
		_, replay, err := traverse.Execute(g, traverse.Query{Op: traverse.OpBFS, Start: 3, Depth: 3, MaxVisits: 200})
		if err != nil {
			t.Fatal(err)
		}
		u := r.units[0]
		tk := &task{ctx: context.Background()}
		const runs = 50
		misses, evictions := u.cacheCounters.misses.Value(), u.cacheCounters.evictions.Value()
		allocs := testing.AllocsPerRun(runs, func() {
			u.buffer.Flush()
			if _, err := r.charge(u, tk, replay); err != nil {
				t.Fatal(err)
			}
		})
		// AllocsPerRun makes one warm-up run besides the measured ones.
		perCharge := (u.cacheCounters.misses.Value() - misses) / (runs + 1)
		if perCharge < 20 || u.cacheCounters.evictions.Value() == evictions {
			t.Fatalf("fixture: %d misses a charge, %d evictions", perCharge, u.cacheCounters.evictions.Value()-evictions)
		}
		if allocs != 0 {
			t.Errorf("a cold charge of %d misses with %d channels for one unit: %g allocations, want 0", perCharge, channels, allocs)
		}
	}
}

// TestFoldedChargeSleepsEveryRead: a solo query on a disk with a
// channel per unit sleeps once for its whole trace, and that sleep
// must still hold every read's modelled service time beside its hits'
// and fills' cost. A sleep can only overrun, so the span's execution
// time is held to that sum from below. No read waited for a slot, and
// each is still observed in subtrav_disk_wait_nanos.
func TestFoldedChargeSleepsEveryRead(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := fastLiveConfig(1)
	cfg.Cost.Disk.SeekNanos = 1_000_000
	cfg.MemoryPerUnit = 16 << 10
	cfg.TimeScale = 1
	cfg.TraceBuffer = 1
	r, err := New(g, cfg, sched.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.diskSlot != nil {
		t.Fatal("fixture: a slot was built")
	}
	q := traverse.Query{Op: traverse.OpRWR, Start: 3, Steps: 120, RestartProb: 0.15, TopK: 5, Seed: 9}
	if resp, err := r.Do(q); err != nil || resp.Err != nil {
		t.Fatalf("%v / %v", err, resp.Err)
	}
	r.Close()

	// The same trace against a cold buffer of the same size, priced
	// read by read as a split charge would sleep it.
	_, replay, err := traverse.Execute(g, q)
	if err != nil {
		t.Fatal(err)
	}
	cur := sim.NewChargeCursor(&cfg.Cost, cache.New(cfg.MemoryPerUnit), 1, replay)
	modelled := cur.RunHits()
	for !cur.Done() {
		modelled += cfg.Cost.Disk.SeekNanos + storage.TransferNanos(int64(cur.Miss().Bytes), cfg.Cost.Disk.BytesPerSecond)
		modelled += cur.Fill() + cur.RunHits()
	}
	s := r.Trace(1)[0]
	if s.CacheMisses != cur.Misses || s.CacheHits != cur.Hits {
		t.Fatalf("span charged %d hits and %d misses, the replay %d and %d", s.CacheHits, s.CacheMisses, cur.Hits, cur.Misses)
	}
	if cur.Misses < 20 || cur.Hits == 0 {
		t.Fatalf("fixture: %d misses and %d hits, want at least 20 and some", cur.Misses, cur.Hits)
	}
	if s.ExecNanos < modelled {
		t.Errorf("execution took %v, less than the %v modelled for %d reads and %d hits",
			time.Duration(s.ExecNanos), time.Duration(modelled), cur.Misses, cur.Hits)
	}
	if s.DiskWaitNanos != 0 {
		t.Errorf("DiskWaitNanos = %d with no slot, want 0", s.DiskWaitNanos)
	}
	if h := r.obs.diskWaitNanos; h.Count() != int64(cur.Misses) || h.Sum() != 0 {
		t.Errorf("subtrav_disk_wait_nanos count %d sum %d, want %d reads of 0", h.Count(), h.Sum(), cur.Misses)
	}
}

// TestChargeSleepAllocatesNothing guards the sleep a charge ends on:
// with the query's records already in the unit's buffer, the charge is
// hits alone, and at TimeScale 1 they add up to a real sleep, taken on
// the unit's own timer.
func TestChargeSleepAllocatesNothing(t *testing.T) {
	g := liveGraph(t)
	cfg := fastLiveConfig(1)
	cfg.TimeScale = 1
	r, err := New(g, cfg, sched.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	q := traverse.Query{Op: traverse.OpBFS, Start: 3, Depth: 2, MaxVisits: 20}
	if resp, err := r.Do(q); err != nil || resp.Err != nil {
		t.Fatalf("warm-up: %v / %v", err, resp.Err)
	}
	_, replay, err := traverse.Execute(g, q)
	if err != nil {
		t.Fatal(err)
	}
	u := r.units[0]
	tk := &task{ctx: context.Background()}
	misses := u.cacheCounters.misses.Value()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.charge(u, tk, replay); err != nil {
			t.Fatal(err)
		}
	})
	if got := u.cacheCounters.misses.Value(); got != misses {
		t.Fatalf("fixture: %d charges missed the warm buffer", got-misses)
	}
	if allocs != 0 {
		t.Errorf("a charge of buffer hits and one sleep: %g allocations, want 0", allocs)
	}
}

// TestDiskWithAChannelPerUnitTakesNoSlot: a unit's worker has one read
// in flight at a time, so with a channel per unit no read can queue and
// the runtime builds no slot; with fewer channels (none counts as one)
// it still does. Without one every wait is exactly zero, and the zero
// waits a charge folds into subtrav_disk_wait_nanos on its way out
// count the records read on every way out: completion, a query
// cancelled in the one wait its charge takes, and a read that fails
// past its retry.
func TestDiskWithAChannelPerUnitTakesNoSlot(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	for _, c := range []struct{ units, channels, slots int }{
		{1, 1, 0}, {4, 4, 0}, {4, 16, 0},
		{2, 1, 1}, {17, 16, 16}, {1, 0, 1}, {3, 0, 1},
	} {
		cfg := fastLiveConfig(c.units)
		cfg.Cost.Disk.Channels = c.channels
		r, err := New(g, cfg, sched.NewRoundRobin())
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		if got := cap(r.diskSlot); got != c.slots || (r.diskSlot == nil) != (c.slots == 0) {
			t.Errorf("%d units, %d channels: slot of %d (nil %t), want %d",
				c.units, c.channels, got, r.diskSlot == nil, c.slots)
		}
	}

	chargeExits(t, false, func(t *testing.T, r *Runtime) {
		t.Helper()
		if r.diskSlot != nil {
			t.Fatal("fixture: a slot was built")
		}
		for _, s := range r.Trace(r.obs.ring.Cap()) {
			if s.DiskWaitNanos != 0 {
				t.Errorf("%s: DiskWaitNanos = %d with no slot, want 0", s, s.DiskWaitNanos)
			}
		}
		var misses int64
		for _, u := range r.units {
			misses += u.buffer.Stats().Misses
		}
		if h := r.obs.diskWaitNanos; h.Count() != misses || h.Sum() != 0 {
			t.Errorf("subtrav_disk_wait_nanos count %d sum %d, want %d reads of 0", h.Count(), h.Sum(), misses)
		}
	})
}

// TestFullDiskSlotWaitsAndCancels: with one channel and two units the
// slow path still measures real queueing, a query blocked on the slot
// still resolves as timed out when cancelled, every wait lands in both
// the histogram and its span, and no slot leaks.
func TestFullDiskSlotWaitsAndCancels(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := slowLiveConfig(2) // Cost.Disk.Channels = 1
	cfg.Cost.Disk.SeekNanos = 500_000
	cfg.MemoryPerUnit = 32 << 10
	cfg.TraceBuffer = 64
	// A rule that fires on no reachable hit: its Hits count the disk
	// reads begun.
	cfg.Faults = faultpoint.NewSet(1).Add(faultpoint.DiskRead, faultpoint.Rule{Every: math.MaxInt64})
	r, err := New(g, cfg, sched.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	queries := make([]traverse.Query, 4)
	for i := range queries {
		queries[i] = traverse.Query{Op: traverse.OpBFS, Start: graph.VertexID(i * 7 % 500), Depth: 2, MaxVisits: 20}
	}
	for i, resp := range doAll(t, r, queries) {
		if resp.Err != nil {
			t.Fatalf("query %d: %v", i, resp.Err)
		}
	}
	var contended bool
	for _, s := range r.Trace(len(queries)) {
		contended = contended || s.DiskWaitNanos > 0
	}
	if !contended {
		t.Error("two units on one channel: no span waited for the disk")
	}

	// Hold the only slot, let a query begin a read, then cancel it.
	r.diskSlot <- struct{}{}
	reads := cfg.Faults.Hits(faultpoint.DiskRead)
	observed := r.obs.diskWaitNanos.Count()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := r.SubmitCtx(ctx, traverse.Query{Op: traverse.OpBFS, Start: 999, Depth: 2, MaxVisits: 20})
	if err != nil {
		t.Fatal(err)
	}
	for cfg.Faults.Hits(faultpoint.DiskRead) == reads {
		select {
		case resp := <-ch:
			t.Fatalf("fixture: query resolved without a disk read: %+v", resp)
		case <-time.After(100 * time.Microsecond):
		}
	}
	// The read has begun and the disk is full, so it waits until
	// cancelled; let the wait it reports be a long one.
	time.Sleep(time.Millisecond)
	cancel()
	if resp := <-ch; !errors.Is(resp.Err, context.Canceled) {
		t.Fatalf("query cancelled on a full disk resolved with %v", resp.Err)
	}
	<-r.diskSlot
	if got := r.obs.diskWaitNanos.Count(); got != observed+1 {
		t.Errorf("cancelled wait observed %d times, want once", got-observed)
	}
	r.Close()

	if n := len(r.diskSlot); n != 0 {
		t.Errorf("%d disk slots held at quiescence", n)
	}
	var b strings.Builder
	if err := r.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\nsubtrav_disk_slots_in_use 0\n") {
		t.Error("subtrav_disk_slots_in_use does not read 0 at quiescence")
	}
	if m := r.Metrics(); m.TimedOut != 1 || m.Completed != int64(len(queries)) || !m.Conserved() {
		t.Errorf("metrics = %v", m)
	}
	spans := r.Trace(64)
	var total int64
	for _, s := range spans {
		total += s.DiskWaitNanos
	}
	if sum := r.obs.diskWaitNanos.Sum(); sum != total {
		t.Errorf("subtrav_disk_wait_nanos sum = %d, spans total %d", sum, total)
	}
	if s := spans[len(spans)-1]; s.Outcome != obs.OutcomeTimeout || s.DiskWaitNanos <= 0 {
		t.Errorf("cancelled query's span: %s disk wait %dns, want a timeout that waited", s, s.DiskWaitNanos)
	}
}
