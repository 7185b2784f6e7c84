package metrics

import (
	"strings"
	"testing"
)

func TestCountersConservation(t *testing.T) {
	t.Parallel()
	s := Snapshot{Submitted: 10, Completed: 6, Rejected: 3, TimedOut: 1}
	if !s.Conserved() {
		t.Errorf("conserved = false for %v", s)
	}
	if s.InFlight() != 0 {
		t.Errorf("in-flight = %d", s.InFlight())
	}
	s.Submitted += 2
	if s.Conserved() {
		t.Error("conserved with 2 in flight")
	}
	if s.InFlight() != 2 {
		t.Errorf("in-flight = %d, want 2", s.InFlight())
	}
}

func TestSnapshotString(t *testing.T) {
	t.Parallel()
	got := Snapshot{Submitted: 5, Completed: 5, Failed: 2}.String()
	for _, want := range []string{"submitted=5", "completed=5", "failed=2", "rejected=0"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
}
