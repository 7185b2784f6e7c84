package metrics

import "fmt"

// Snapshot counts the fates of the queries presented to an executor;
// sim.Admission, the ledger both executors drive, keeps one per tenant
// bucket and one in total. The accounting is a partition: each
// submitted query ends in exactly one of Completed, Rejected or
// TimedOut, so at quiescence
//
//	Submitted = Completed + Rejected + TimedOut
//
// holds exactly — the conservation invariant the chaos suite asserts.
// Failed, DegradedRounds and DiskFaultRetries are the live runtime's
// informational side-channels (a failed execution still *completes*:
// its response was delivered).
type Snapshot struct {
	// Submitted counts valid queries presented for admission.
	Submitted int64
	// Completed counts queries whose response was delivered after
	// execution (including executions that returned an error).
	Completed int64
	// Rejected counts queries refused at admission (backpressure).
	Rejected int64
	// TimedOut counts queries dropped because their deadline expired
	// or their context was cancelled before execution finished.
	TimedOut int64

	// Failed counts the subset of Completed whose execution returned
	// an error (e.g. an injected transient disk fault that exhausted
	// its retry).
	Failed int64
	// DegradedRounds counts scheduling rounds that bypassed the
	// configured scheduler for the least-loaded fallback after
	// repeated scheduler-round timeouts.
	DegradedRounds int64
	// DiskFaultRetries counts transient disk errors absorbed by the
	// runtime's single internal retry.
	DiskFaultRetries int64
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
