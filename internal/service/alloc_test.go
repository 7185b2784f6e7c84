package service

import "testing"

// TestRoundTripAllocBudget holds the heap allocations of one pipelined
// round trip, client and server together (the runtime's dispatch,
// placement and execution included), at a floor: a regression that
// puts a goroutine, a buffer or a per-reply conversion back on the
// path shows up here before the benchmark sees it.
func TestRoundTripAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops items under -race")
	}
	client, stop := startService(t)
	defer stop()
	for _, c := range []struct {
		name  string
		q     WireQuery
		limit float64
	}{
		{"bfs", WireQuery{Op: "bfs", Start: 3, Depth: 2, MaxVisits: 40}, 7},
		{"rwr", WireQuery{Op: "rwr", Start: 3, Steps: 300, RestartProb: 0.2, TopK: 10, Seed: 5}, 14},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := client.Do(c.q); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.2f allocations per round trip", c.name, allocs)
		if allocs > c.limit {
			t.Errorf("%s round trip: %.2f allocations, want at most %g", c.name, allocs, c.limit)
		}
	}
}
