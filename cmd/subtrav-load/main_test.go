package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"subtrav"
	"subtrav/internal/loadgen"
	"subtrav/internal/sim"
)

// TestSimSweepByteReproducible runs a reduced -sim sweep twice: the
// output is a pure function of its inputs, byte for byte — what lets CI
// cmp the tracked BENCH_load.json — and every point is reported under
// both policies with an exact outcome partition.
func TestSimSweepByteReproducible(t *testing.T) {
	t.Parallel()
	g, err := subtrav.TwitterLike(subtrav.ScaleTiny, 42)
	if err != nil {
		t.Fatal(err)
	}
	base := loadgen.Config{
		DurationNanos: 10_000_000_000,
		NumKeys:       int32(g.NumVertices()),
		ZipfS:         1.1,
		TimeoutNanos:  1_000_000_000,
		Tenants:       []loadgen.TenantProfile{{Name: "gold", Weight: 3}, {Name: "bronze", Weight: 1}},
	}
	points := []float64{4, 100}
	run := func() []byte {
		b, err := sweep("sim", points, 7, base, simDriver(g, sim.Config{NumUnits: 2, MemoryPerUnit: 64 << 20, MaxPending: 16}))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("the same sweep produced different bytes")
	}
	if a[len(a)-1] != '\n' {
		t.Error("output is not newline-terminated")
	}

	var out struct {
		Mode   string
		Points []loadgen.Report
	}
	if err := json.Unmarshal(a, &out); err != nil {
		t.Fatal(err)
	}
	if out.Mode != "sim" || len(out.Points) != 2*len(points) {
		t.Fatalf("mode %q with %d reports, want sim with %d", out.Mode, len(out.Points), 2*len(points))
	}
	var refused int
	for i, rep := range out.Points {
		wantPolicy := []string{loadgen.PolicySCH, loadgen.PolicyBaseline}[i%2]
		if rep.Policy != wantPolicy || rep.TargetQPS != points[i/2] {
			t.Errorf("report %d is %s at %g q/s, want %s at %g", i, rep.Policy, rep.TargetQPS, wantPolicy, points[i/2])
		}
		if rep.Offered == 0 || rep.OK+rep.Failed+rep.Rejected+rep.Timeout+rep.Transport != rep.Offered {
			t.Errorf("report %d: outcome partition broken: %+v", i, rep)
		}
		if i%2 == 1 && (rep.Offered != out.Points[i-1].Offered || rep.Seed != out.Points[i-1].Seed) {
			t.Errorf("point %g: the two policies were not offered the same plan", rep.TargetQPS)
		}
		refused += rep.Rejected + rep.Timeout
	}
	if refused == 0 {
		t.Error("no point refused or dropped anything: the sweep never reached the admission bound or a deadline")
	}
}

// TestWireQueryIsTheEventsQuery pins the one shaping of a plan event:
// what the live driver puts on the wire decodes, server side, to the
// query the simulator runs.
func TestWireQueryIsTheEventsQuery(t *testing.T) {
	t.Parallel()
	plan, err := loadgen.BuildPlan(loadgen.Config{Seed: 3, DurationNanos: 1_000_000_000, QPS: 200, NumKeys: 500, ZipfS: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]bool{}
	for _, ev := range plan.Events {
		ev.Tenant = "gold"
		want, err := ev.Query()
		if err != nil {
			t.Fatal(err)
		}
		w, err := wireQuery(ev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.ToQuery()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || w.Tenant != ev.Tenant {
			t.Fatalf("event %+v: wire form %+v decodes to %+v, the simulator runs %+v", ev, w, got, want)
		}
		ops[ev.Op] = true
	}
	if len(ops) != 4 {
		t.Errorf("plan covered ops %v, want all four", ops)
	}
	if _, err := wireQuery(loadgen.Event{Op: "pagerank"}); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestParseQPS(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		in   string
		want []float64 // nil: an error
	}{
		{"200", []float64{200}},
		{"4, 16,64.5", []float64{4, 16, 64.5}},
		{"", nil},
		{"10,,20", nil},
		{"0", nil},
		{"-5", nil},
		{"fast", nil},
	} {
		got, err := parseQPS(tc.in)
		if (err != nil) != (tc.want == nil) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseQPS(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestParseTenants(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		in   string
		want []loadgen.TenantProfile // nil: an error
	}{
		{"default:1", []loadgen.TenantProfile{{Name: "default", Weight: 1}}},
		{"gold:3, bronze:0.5", []loadgen.TenantProfile{{Name: "gold", Weight: 3}, {Name: "bronze", Weight: 0.5}}},
		{"", nil},
		{"gold", nil},
		{"gold:", nil},
		{"gold:0", nil},
		{"gold:-1", nil},
		{"gold:heavy", nil},
	} {
		got, err := parseTenants(tc.in)
		if (err != nil) != (tc.want == nil) || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseTenants(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestParseMix(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		in   string
		want loadgen.OpMix
		ok   bool
	}{
		{"bfs:0.5,sssp:0.2,collab:0.15,rwr:0.15", loadgen.DefaultOpMix(), true},
		{"bfs:1", loadgen.OpMix{BFS: 1}, true},
		{"rwr:2, bfs:0", loadgen.OpMix{RWR: 2}, true},
		{"", loadgen.OpMix{}, false},
		{"bfs", loadgen.OpMix{}, false},
		{"bfs:-1", loadgen.OpMix{}, false},
		{"bfs:lots", loadgen.OpMix{}, false},
		{"pagerank:1", loadgen.OpMix{}, false},
	} {
		got, err := parseMix(tc.in)
		if (err == nil) != tc.ok || tc.ok && got != tc.want {
			t.Errorf("parseMix(%q) = %+v, %v; want %+v, ok=%t", tc.in, got, err, tc.want, tc.ok)
		}
	}
}
