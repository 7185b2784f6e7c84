package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"subtrav"
	"subtrav/internal/traverse"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func names(ms []manifestMetric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestManifest holds BENCHMARK.json and the lists in main.go equal, both
// ways, and inside the contract's limits.
func TestManifest(t *testing.T) {
	m := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, declared []metricDef, listed []manifestMetric, maxN int) {
		if len(listed) < 1 || len(listed) > maxN {
			t.Errorf("%s: %d metrics, want 1..%d", kind, len(listed), maxN)
		}
		want := names(listed)
		if len(want) != len(listed) {
			t.Errorf("%s: a name is used twice", kind)
		}
		for _, d := range declared {
			if unit, ok := want[d.name]; !ok || unit != d.unit {
				t.Errorf("%s: main.go declares %s [%s], BENCHMARK.json has [%s] (present: %t)", kind, d.name, d.unit, unit, ok)
			}
			delete(want, d.name)
		}
		for name := range want {
			t.Errorf("%s: BENCHMARK.json lists %s, main.go does not", kind, name)
		}
		for _, l := range listed {
			if !nameRE.MatchString(l.Name) || !unitRE.MatchString(l.Unit) || (l.Better != "lower" && l.Better != "higher") {
				t.Errorf("%s: malformed entry %+v", kind, l)
			}
		}
	}
	check("end_to_end", endToEnd, m.EndToEnd, 16)
	check("per_layer", perLayer, m.PerLayer, 128)
	for _, e := range m.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %g, want (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(m.Workloads) != len(specs) || len(m.Workloads) > 8 {
		t.Fatalf("%d workloads listed, %d in main.go", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: %q listed, %q in main.go", i, w.Name, specs[i].name)
		}
		if n := len(w.Why); n == 0 || n > 200 || strings.ContainsAny(w.Why, "\n") ||
			!strings.HasSuffix(w.Why, ".") || strings.Count(w.Why, ". ") != 0 {
			t.Errorf("workload %s: why must be one sentence on one line of at most 200 characters, got %d: %q", w.Name, n, w.Why)
		}
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", m.Paths, m.RunSeconds)
	}
}

// TestSmoke runs every workload in both modes on the tiny graph with every
// reply checked, and holds the printed result to the manifest.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	began := time.Now()
	for _, w := range m.Workloads {
		for trace, listed := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
			var out bytes.Buffer
			if err := execute(&out, w.Name, 7, 1.3, trace == 1, true, t.TempDir()); err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", w.Name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line does not parse: %v\n%s", w.Name, trace, err, out.String())
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%t attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := names(listed)
			for name, v := range res.Metrics {
				if unit, ok := want[name]; !ok || unit != v.Unit {
					t.Errorf("%s trace=%d: printed %s [%s], manifest has [%s] (present: %t)", w.Name, trace, name, v.Unit, unit, ok)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (trace == 0 && v.Value == 0) {
					t.Errorf("%s trace=%d: %s = %v", w.Name, trace, name, v.Value)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s trace=%d: %s is in the manifest and was not printed", w.Name, trace, name)
			}
		}
	}
	if d := time.Since(began); d > 15*time.Second && !raceDetector {
		t.Errorf("smoke runs took %v, want under 15s", d)
	}
}

// TestUnknownWorkloadFails: a run that cannot measure prints no result.
func TestUnknownWorkloadFails(t *testing.T) {
	var out bytes.Buffer
	if err := execute(&out, "nope", 1, 1, false, true, t.TempDir()); err == nil || out.Len() != 0 {
		t.Fatalf("err = %v, output %q", err, out.String())
	}
}

// TestInputsDeterministic: the same seed gives a byte-identical query list
// and oracle, another seed another list, and the graph never depends on it.
func TestInputsDeterministic(t *testing.T) {
	for _, s := range specs {
		s.scale, s.listLen, s.replayN = subtrav.ScaleTiny, 512, 128
		digests := map[uint64][2]string{}
		for _, seed := range []uint64{1, 1, 2} {
			in, err := buildInputs(s, seed, true, filepath.Join(t.TempDir(), "out"))
			if err != nil {
				t.Fatal(err)
			}
			snapshot, err := os.ReadFile(in.path)
			if err != nil {
				t.Fatal(err)
			}
			got := [2]string{in.digest, fmt.Sprintf("%x", sha256.Sum256(snapshot))}
			if prev, ok := digests[seed]; ok && prev != got {
				t.Errorf("%s seed %d: digests differ between two builds: %v, %v", s.name, seed, prev, got)
			}
			digests[seed] = got
		}
		if digests[1][0] == digests[2][0] {
			t.Errorf("%s: seeds 1 and 2 give the same query list", s.name)
		}
		if digests[1][1] != digests[2][1] {
			t.Errorf("%s: the graph depends on the seed", s.name)
		}
	}
}

// TestSameResultCatchesEachField corrupts one field per result kind.
func TestSameResultCatchesEachField(t *testing.T) {
	base := traverse.Result{
		Visited: 12, Found: true, PathLen: 3,
		Recommendations: []traverse.Recommendation{{Product: 4, Similarity: 0.5}, {Product: 9, Similarity: 0.4}},
		Ranking:         []traverse.Ranked{{Vertex: 1, Score: 0.25}, {Vertex: 2, Score: 0.125}},
	}
	if err := sameResult(base, base.Clone()); err != nil {
		t.Fatalf("identical results: %v", err)
	}
	for name, corrupt := range map[string]func(*traverse.Result){
		"bfs visited":           func(r *traverse.Result) { r.Visited++ },
		"sssp found":            func(r *traverse.Result) { r.Found = false },
		"sssp pathlen":          func(r *traverse.Result) { r.PathLen-- },
		"collab product":        func(r *traverse.Result) { r.Recommendations[1].Product = 8 },
		"collab similarity":     func(r *traverse.Result) { r.Recommendations[0].Similarity += 1e-12 },
		"collab missing":        func(r *traverse.Result) { r.Recommendations = r.Recommendations[:1] },
		"rwr vertex":            func(r *traverse.Result) { r.Ranking[0].Vertex = 7 },
		"rwr score":             func(r *traverse.Result) { r.Ranking[1].Score *= 2 },
		"rwr extra":             func(r *traverse.Result) { r.Ranking = append(r.Ranking, traverse.Ranked{Vertex: 3}) },
		"reply loses its lists": func(r *traverse.Result) { r.Recommendations, r.Ranking = nil, nil },
	} {
		got := base.Clone()
		corrupt(&got)
		if err := sameResult(base, got); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

// TestWrongReplyFailsRun: a reply that differs from the oracle's answer ends
// the run with an error naming the query, and no result is printed.
func TestWrongReplyFailsRun(t *testing.T) {
	s := specs[0]
	s.scale, s.listLen, s.replayN = subtrav.ScaleTiny, 512, 128
	in, err := buildInputs(s, 3, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in.oracle[5].Visited++
	var out bytes.Buffer
	r := &run{out: &out, spec: s, seconds: 0.5, in: in, metrics: map[string]float64{}}
	if err := r.serviceEndToEnd(); err == nil || !strings.Contains(err.Error(), "query 5 ") {
		t.Fatalf("err = %v, want a mismatch on query 5", err)
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Fatalf("a result was printed:\n%s", out.String())
	}
}
