package chaos

import (
	"errors"
	"testing"
	"time"

	"subtrav/internal/faultpoint"
	"subtrav/internal/live"
	"subtrav/internal/sim"
)

// fastConfig: cheap sleeps so hundreds of queries finish quickly, but
// real enough that queues form.
func fastConfig(units int) live.Config {
	cost := sim.DefaultCostModel()
	cost.Disk.SeekNanos = 100_000
	return live.Config{
		NumUnits: units, MemoryPerUnit: 256 << 10, Cost: cost,
		TimeScale: 1e-3,
	}
}

func TestStressBaseline(t *testing.T) {
	t.Parallel()
	rep, err := Run(Options{
		Seed:       1,
		Config:     fastConfig(4),
		Submitters: 16,
		Queries:    400,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != 400 {
		t.Errorf("accepted %d of 400 with default MaxPending", rep.Accepted)
	}
	if rep.Completed != 400 || rep.Failed != 0 || rep.TimedOut != 0 {
		t.Errorf("clean run produced %+v", rep)
	}
}

// TestStressFaultStorm is the headline scenario: latency spikes and
// transient errors on disk reads, unit stalls at dequeue, scheduler
// stalls forcing degradation, tight deadlines on a slice of the
// workload, and a small admission bound — all at once, all seeded.
// Run verifies exactly-once delivery, queue/in-flight bounds, and
// metrics conservation internally.
func TestStressFaultStorm(t *testing.T) {
	t.Parallel()
	cfg := fastConfig(4)
	cfg.QueueCap = 8
	cfg.MaxPending = 32
	cfg.SchedTimeout = 500 * time.Microsecond
	cfg.Faults = faultpoint.NewSet(42).
		Add(faultpoint.DiskRead, faultpoint.Rule{Prob: 0.05, Delay: 300 * time.Microsecond}).     // latency spikes
		Add(faultpoint.DiskRead, faultpoint.Rule{Prob: 0.02, Err: errors.New("transient disk")}). // absorbed by the internal retry
		Add(faultpoint.Dequeue, faultpoint.Rule{Every: 97, Delay: 2 * time.Millisecond}).         // occasional unit stall
		Add(faultpoint.SchedRound, faultpoint.Rule{Every: 1, Delay: time.Millisecond})            // every round slow → degradation

	rep, err := Run(Options{
		Seed:          42,
		Config:        cfg,
		Submitters:    16,
		Queries:       400,
		DeadlineEvery: 10,
		Deadline:      500 * time.Microsecond,
		MaxRetries:    20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fault storm: %+v", *rep)
	if rep.Accepted == 0 {
		t.Fatal("nothing was accepted")
	}
	if rep.GaveUp > 0 {
		t.Errorf("%d queries gave up despite 20 retries", rep.GaveUp)
	}
	if rep.TimedOut == 0 {
		t.Error("tight deadlines on every 10th query produced no timeouts")
	}
	if rep.Metrics.DegradedRounds == 0 {
		t.Error("scheduler stalls never degraded to the fallback")
	}
	if cfg.Faults.TotalFired() == 0 {
		t.Error("no faults fired")
	}
}

// TestStressBackpressure squeezes the admission bound so hard that
// rejections are guaranteed, and checks the submitters ride them out
// with backoff.
func TestStressBackpressure(t *testing.T) {
	t.Parallel()
	cfg := fastConfig(2)
	cfg.QueueCap = 2
	cfg.MaxPending = 4
	cfg.Cost.Disk.SeekNanos = 2_000_000 // slower queries → longer saturation

	rep, err := Run(Options{
		Seed:       7,
		Config:     cfg,
		Submitters: 16,
		Queries:    160,
		MaxRetries: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("backpressure: %+v", *rep)
	if rep.RejectedAttempts == 0 {
		t.Fatal("MaxPending=4 under 16 submitters produced no rejections")
	}
	if rep.MaxInFlight > 4 {
		t.Errorf("in-flight reached %d, bound is 4", rep.MaxInFlight)
	}
	if rep.GaveUp > 0 {
		t.Errorf("%d queries gave up despite 40 retries", rep.GaveUp)
	}
}

// TestStressOverload keeps more queries in flight than the unit queues
// hold (NumUnits × QueueCap), under SCH and under least-loaded
// placement: rounds wait for room, which completions make, and Run
// holds the queue bound QueueCap + NumUnits − 1 and conservation.
func TestStressOverload(t *testing.T) {
	t.Parallel()
	for _, auction := range []bool{true, false} {
		cfg := fastConfig(2)
		cfg.QueueCap = 2
		cfg.MaxPending = 24
		cfg.Cost.Disk.SeekNanos = 2_000_000 // slower queries → a standing backlog
		rep, err := Run(Options{Seed: 5, Config: cfg, Auction: auction, Submitters: 16, Queries: 160})
		if err != nil {
			t.Fatalf("auction=%t: %v", auction, err)
		}
		t.Logf("overload, auction=%t: %+v", auction, *rep)
		if held := cfg.NumUnits * cfg.QueueCap; rep.MaxInFlight <= held {
			t.Errorf("auction=%t: in flight peaked at %d, not past the %d the queues hold", auction, rep.MaxInFlight, held)
		}
		if rep.Accepted != 160 || rep.Completed != 160 {
			t.Errorf("auction=%t: %d accepted, %d completed of 160", auction, rep.Accepted, rep.Completed)
		}
	}
}

// TestStressSeededTwiceAgrees reruns the same seed and checks the
// workload-level outcome is reproducible in the dimensions that are
// deterministic by construction (accepted and completed counts; fault
// schedules are ordinal-based, timing-dependent dimensions like
// rejections are not).
func TestStressSeededTwiceAgrees(t *testing.T) {
	t.Parallel()
	opts := func() Options {
		return Options{Seed: 99, Config: fastConfig(4), Submitters: 8, Queries: 200}
	}
	a, err := Run(opts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts())
	if err != nil {
		t.Fatal(err)
	}
	if a.Accepted != b.Accepted || a.Completed != b.Completed || a.Failed != b.Failed {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

// TestStressPersistentFaults: a workload where some queries genuinely
// fail (back-to-back disk errors exhaust the internal retry). Failures
// must be reported, counted, and conserved — not lost or retried
// forever.
func TestStressPersistentFaults(t *testing.T) {
	t.Parallel()
	cfg := fastConfig(2)
	cfg.Faults = faultpoint.NewSet(11).Add(faultpoint.DiskRead,
		faultpoint.Rule{Prob: 0.3, Err: errors.New("flaky disk")}) // 30%: retries often hit a second fault
	rep, err := Run(Options{
		Seed:       11,
		Config:     cfg,
		Submitters: 8,
		Queries:    200,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("persistent faults: %+v", *rep)
	if rep.Failed == 0 {
		t.Error("30% disk-error probability produced no failed queries")
	}
	if rep.Metrics.DiskFaultRetries == 0 {
		t.Error("no internal disk retries recorded")
	}
	if rep.Completed+rep.TimedOut != rep.Accepted {
		t.Errorf("accepted %d ≠ completed %d + timed-out %d", rep.Accepted, rep.Completed, rep.TimedOut)
	}
}

func TestOptionsValidation(t *testing.T) {
	t.Parallel()
	if _, err := Run(Options{Seed: 1, Config: fastConfig(1), DeadlineEvery: 2}); err == nil {
		t.Error("DeadlineEvery without Deadline accepted")
	}
	if _, err := Run(Options{Seed: 1, Config: live.Config{NumUnits: -1}}); err == nil {
		t.Error("invalid runtime config accepted")
	}
}
