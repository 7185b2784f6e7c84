package sim

import (
	"testing"

	"subtrav/internal/obs"
	"subtrav/internal/sched"
)

// TestTraceIntoRing runs a simulation with a span ring installed: the
// same trace surface the live runtime exposes. (What a span must say is
// TestTraceSpans' business.)
func TestTraceIntoRing(t *testing.T) {
	g := testGraph(t)
	c := newCluster(t, g, 2, 1<<20)
	ring := obs.NewRing(64)
	c.SetTrace(ring)

	const n = 25
	res, err := c.Run(sched.NewBaseline(1), bfsTasks(t, g, n, 31))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n || ring.Len() != n {
		t.Fatalf("completed %d, ring holds %d spans, want %d", res.Completed, ring.Len(), n)
	}
}
