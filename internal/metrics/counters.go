package metrics

import (
	"fmt"
	"sync/atomic"
)

// Counters tracks the lifecycle of every query presented to an
// executor; sim.Lifecycle, which both executors drive, keeps one. The
// accounting is a partition: each submitted query ends in exactly one
// of Completed, Rejected or TimedOut, so at quiescence
//
//	Submitted = Completed + Rejected + TimedOut
//
// holds exactly — the conservation invariant the chaos suite asserts.
// Failed and DegradedRounds are informational side-channels (a failed
// execution still *completes*: its response was delivered).
type Counters struct {
	// Submitted counts valid queries presented for admission.
	Submitted atomic.Int64
	// Completed counts queries whose response was delivered after
	// execution (including executions that returned an error).
	Completed atomic.Int64
	// Rejected counts queries refused at admission (backpressure).
	Rejected atomic.Int64
	// TimedOut counts queries dropped because their deadline expired
	// or their context was cancelled before execution finished.
	TimedOut atomic.Int64

	// Failed counts the subset of Completed whose execution returned
	// an error (e.g. an injected transient disk fault that exhausted
	// its retry).
	Failed atomic.Int64
	// DegradedRounds counts scheduling rounds that bypassed the
	// configured scheduler for the least-loaded fallback after
	// repeated scheduler-round timeouts.
	DegradedRounds atomic.Int64
	// DiskFaultRetries counts transient disk errors absorbed by the
	// runtime's single internal retry.
	DiskFaultRetries atomic.Int64
}

// Snapshot is a point-in-time copy of Counters.
type Snapshot struct {
	Submitted, Completed, Rejected, TimedOut int64
	Failed, DegradedRounds, DiskFaultRetries int64
}

// Snapshot copies the counters. Individual loads are atomic but the
// set is not a consistent cut while the runtime is hot; at quiescence
// it is exact.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		Submitted:        c.Submitted.Load(),
		Completed:        c.Completed.Load(),
		Rejected:         c.Rejected.Load(),
		TimedOut:         c.TimedOut.Load(),
		Failed:           c.Failed.Load(),
		DegradedRounds:   c.DegradedRounds.Load(),
		DiskFaultRetries: c.DiskFaultRetries.Load(),
	}
}

// InFlight returns the queries admitted but not yet resolved.
func (s Snapshot) InFlight() int64 {
	return s.Submitted - s.Completed - s.Rejected - s.TimedOut
}

// Conserved reports the conservation invariant
// Submitted = Completed + Rejected + TimedOut.
func (s Snapshot) Conserved() bool { return s.InFlight() == 0 }

func (s Snapshot) String() string {
	return fmt.Sprintf("submitted=%d completed=%d rejected=%d timed-out=%d failed=%d degraded-rounds=%d disk-retries=%d",
		s.Submitted, s.Completed, s.Rejected, s.TimedOut, s.Failed, s.DegradedRounds, s.DiskFaultRetries)
}
