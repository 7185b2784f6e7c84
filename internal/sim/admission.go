package sim

import "math"

// MaxTenants bounds how many distinct tenants an Admission tracks
// under their own name; later arrivals share the OverflowTenant bucket
// for both quota and accounting, so a client minting tenant names can
// grow neither the quota table nor whatever its owner keys by bucket
// (the live runtime's per-tenant metric series).
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
// the single copy under both executors: the live runtime consults it
// under its mutex in SubmitTenantCtx, the simulator at each arrival
// event. The decision is a function of in-flight counts only — never
// of a clock — which is what lets one implementation serve wall time
// and virtual time. A query is in flight from Admit until the Release
// its owner calls when it resolves (completed or timed out).
//
// Not safe for concurrent use; the owner serializes access.
type Admission struct {
	maxPending int // 0: unbounded
	tenantCap  int // 0: no per-tenant cap

	inflight int
	index    map[string]int
	buckets  []bucket
}

type bucket struct {
	label    string
	inflight int
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
// are dense indices from 0 in creation order, so an owner can keep
// per-tenant state in a slice beside them.
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

// Label returns the bucket's bounded-cardinality name: the tenant's
// own, DefaultTenant or OverflowTenant.
func (a *Admission) Label(bucket int) string { return a.buckets[bucket].label }

// InFlight returns the admitted-but-unresolved count.
func (a *Admission) InFlight() int { return a.inflight }

// TenantInFlight returns the bucket's admitted-but-unresolved count.
func (a *Admission) TenantInFlight(bucket int) int { return a.buckets[bucket].inflight }

// Admit decides one arrival for the bucket and, when it is Admitted,
// counts it in flight. The global bound is checked first, so a full
// pool reports QueueFull even for a tenant that is also over its
// share.
func (a *Admission) Admit(bucket int) Verdict {
	b := &a.buckets[bucket]
	switch {
	case a.maxPending > 0 && a.inflight >= a.maxPending:
		return QueueFull
	case a.tenantCap > 0 && b.inflight >= a.tenantCap:
		return TenantOverShare
	}
	a.inflight++
	b.inflight++
	return Admitted
}

// Release ends the in-flight interval of one admitted query.
func (a *Admission) Release(bucket int) {
	a.inflight--
	a.buckets[bucket].inflight--
}
