// Package tenantlabel labels a metric with the tenant name a client
// sent, skipping the capped bucket table: every new name is a new
// series, and the registry grows without bound.
package tenantlabel

import "subtrav/internal/obs"

type request struct{ TenantName string }

func count(reg *obs.Registry, req request) {
	reg.Counter("subtrav_tenant_submitted_total", "Queries submitted per tenant.",
		obs.L("tenant", req.TenantName)).Inc()
}
