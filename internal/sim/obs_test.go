package sim

import (
	"strings"
	"testing"

	"subtrav/internal/obs"
	"subtrav/internal/sched"
	"subtrav/internal/storage"
)

// TestTraceIntoRing runs a simulation with a span ring installed and
// disk metrics mirrored into a registry: the same observability
// surface the live runtime exposes. (What a span must say is
// TestTraceSpans' business.)
func TestTraceIntoRing(t *testing.T) {
	g := testGraph(t)
	c := newCluster(t, g, 2, 1<<20)
	ring := obs.NewRing(64)
	c.SetTrace(ring)
	reg := obs.NewRegistry()
	c.SetDiskMetrics(storage.NewMetrics(reg))

	const n = 25
	res, err := c.Run(sched.NewBaseline(1), bfsTasks(t, g, n, 31))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n || ring.Len() != n {
		t.Fatalf("completed %d, ring holds %d spans, want %d", res.Completed, ring.Len(), n)
	}
	// The mirrored disk counters must agree with the cluster's own
	// accounting and be scrapeable.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "subtrav_disk_requests_total") {
		t.Errorf("exposition missing disk series:\n%s", b.String())
	}
}
