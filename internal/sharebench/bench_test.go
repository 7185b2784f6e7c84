package sharebench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRunSmoke is the CI smoke: the reduced suite must run clean,
// clear the acceptance thresholds (results identical across modes,
// >= MinReadsRatio fewer disk reads/query on the gated cell), and
// serialize to valid JSON.
func TestRunSmoke(t *testing.T) {
	rep, err := Run(true, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Smoke {
		t.Error("smoke run not marked Smoke")
	}
	if err := rep.CheckThresholds(MinReadsRatio); err != nil {
		t.Error(err)
	}
	for _, sc := range rep.Scenarios {
		if len(sc.Modes) != 2 {
			t.Fatalf("%s: %d modes, want 2", sc.Name, len(sc.Modes))
		}
		if sc.Units*sc.QueueDepth < 8 {
			t.Errorf("%s: units*queue_depth = %d, want >= 8 concurrent overlapping queries",
				sc.Name, sc.Units*sc.QueueDepth)
		}
		base, batch := sc.Modes[0], sc.Modes[1]
		if sc.Gate && batch.DiskRequests >= base.DiskRequests {
			t.Errorf("%s: batch mode issued %d disk reads, baseline %d; want strictly fewer",
				sc.Name, batch.DiskRequests, base.DiskRequests)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Report
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
}

// TestRunDeterministic pins the drift-gate contract: two full smoke
// runs serialize byte-identically.
func TestRunDeterministic(t *testing.T) {
	a, err := Run(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ab, bb bytes.Buffer
	if err := a.WriteJSON(&ab); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
		t.Errorf("reports differ across identical runs:\n%s\n---\n%s", ab.String(), bb.String())
	}
}

// TestCheckThresholds exercises the failure paths the CI gate relies
// on.
func TestCheckThresholds(t *testing.T) {
	ok := &Report{Scenarios: []ScenarioReport{{
		Name: "x", Gate: true, ReadsRatio: 2.5, ResultsIdentical: true,
	}}}
	if err := ok.CheckThresholds(2); err != nil {
		t.Errorf("healthy report rejected: %v", err)
	}
	cases := []*Report{
		{}, // empty
		{Scenarios: []ScenarioReport{{Name: "x", Gate: true, ReadsRatio: 1.2, ResultsIdentical: true}}},
		{Scenarios: []ScenarioReport{{Name: "x", Gate: true, ReadsRatio: 3, ResultsIdentical: false}}},
		{Scenarios: []ScenarioReport{{Name: "x", Gate: false, ReadsRatio: 3, ResultsIdentical: true}}},
	}
	for i, rep := range cases {
		if err := rep.CheckThresholds(2); err == nil {
			t.Errorf("case %d: broken report passed thresholds", i)
		}
	}
}
