package sim

import (
	"math"

	"subtrav/internal/metrics"
)

// MaxTenants bounds how many distinct tenants an Admission tracks
// under their own name; later arrivals share the OverflowTenant bucket
// for both quota and accounting, so a client minting tenant names can
// grow neither the ledger nor whatever its owner keys by bucket (the
// live runtime's per-tenant metric series).
const MaxTenants = 32

// Bucket labels that are not a tenant's own name.
const (
	// DefaultTenant is the bucket of untenanted queries.
	DefaultTenant = "default"
	// OverflowTenant is the shared bucket past MaxTenants.
	OverflowTenant = "overflow"
)

// Verdict is Admission's answer to one arrival.
type Verdict uint8

const (
	// Admitted: the query joins the pending pool and is in flight until
	// Release.
	Admitted Verdict = iota
	// QueueFull: MaxPending queries are already in flight.
	QueueFull
	// TenantOverShare: the global bound has room but the tenant's
	// bucket is at its share of it.
	TenantOverShare
)

// Admission is the accept/reject rule in front of the pending pool,
// and the one ledger of what became of the queries shown to it: the
// single copy under both executors. The live runtime consults it under
// its mutex in SubmitTenantCtx, the simulator at each arrival event.
// Each bucket counts its submitted, completed, rejected and timed-out
// queries, a running total counts them all, and in flight is the
// difference: a query is in flight from Admit until the Release its
// owner calls when it resolves (completed or timed out). The decision
// is a function of in-flight counts only — never of a clock — which is
// what lets one implementation serve wall time and virtual time.
//
// Not safe for concurrent use; the owner serializes access.
type Admission struct {
	maxPending int // 0: unbounded
	tenantCap  int // 0: no per-tenant cap

	total   metrics.Snapshot
	index   map[string]int
	buckets []bucket
}

type bucket struct {
	label  string
	counts metrics.Snapshot
}

// NewAdmission builds the rule for a global bound of maxPending
// in-flight queries (0 = unbounded) of which one tenant may hold at
// most ceil(tenantShare·maxPending), minimum 1. A tenantShare outside
// (0, 1) disables the per-tenant cap, and so does an unbounded pool,
// which has no share to take.
func NewAdmission(maxPending int, tenantShare float64) *Admission {
	a := &Admission{maxPending: maxPending, index: make(map[string]int)}
	if maxPending > 0 && tenantShare > 0 && tenantShare < 1 {
		a.tenantCap = max(int(math.Ceil(tenantShare*float64(maxPending))), 1)
	}
	return a
}

// Tenant returns the bucket a tenant name is accounted in, creating it
// on first sight: its own while fewer than MaxTenants buckets exist,
// the overflow bucket after. The empty name is DefaultTenant. Buckets
// are dense indices from 0 in creation order.
func (a *Admission) Tenant(name string) int {
	if name == "" {
		name = DefaultTenant
	}
	if b, ok := a.index[name]; ok {
		return b
	}
	if len(a.buckets) >= MaxTenants {
		if b, ok := a.index[OverflowTenant]; ok {
			return b
		}
		name = OverflowTenant
	}
	a.index[name] = len(a.buckets)
	a.buckets = append(a.buckets, bucket{label: name})
	return len(a.buckets) - 1
}

// Buckets returns how many buckets exist.
func (a *Admission) Buckets() int { return len(a.buckets) }

// Label returns the bucket's bounded-cardinality name: the tenant's
// own, DefaultTenant or OverflowTenant.
func (a *Admission) Label(bucket int) string { return a.buckets[bucket].label }

// Counts returns the running total over every bucket. Its Failed,
// DegradedRounds and DiskFaultRetries are zero: the ledger counts
// fates, and those are not.
func (a *Admission) Counts() metrics.Snapshot { return a.total }

// TenantCounts returns the bucket's counts.
func (a *Admission) TenantCounts(bucket int) metrics.Snapshot { return a.buckets[bucket].counts }

// InFlight returns the admitted-but-unresolved count.
func (a *Admission) InFlight() int { return int(a.total.InFlight()) }

// Admit counts one arrival for the bucket and decides it: Admitted, it
// is in flight until Release; refused, it is counted rejected. The
// global bound is checked first, so a full pool reports QueueFull even
// for a tenant that is also over its share.
func (a *Admission) Admit(bucket int) Verdict {
	b := &a.buckets[bucket].counts
	v := Admitted
	switch {
	case a.maxPending > 0 && a.total.InFlight() >= int64(a.maxPending):
		v = QueueFull
	case a.tenantCap > 0 && b.InFlight() >= int64(a.tenantCap):
		v = TenantOverShare
	}
	a.total.Submitted++
	b.Submitted++
	if v != Admitted {
		a.total.Rejected++
		b.Rejected++
	}
	return v
}

// Release ends the in-flight interval of one admitted query of the
// bucket, counting it timed out or completed.
func (a *Admission) Release(bucket int, timedOut bool) {
	b := &a.buckets[bucket].counts
	if timedOut {
		a.total.TimedOut++
		b.TimedOut++
	} else {
		a.total.Completed++
		b.Completed++
	}
}
