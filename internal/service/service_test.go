package service

import (
	"math"
	"strings"
	"sync"
	"testing"

	"subtrav/internal/affinity"
	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
	"subtrav/internal/live"
	"subtrav/internal/sim"
	"subtrav/internal/traverse"
)

// startService spins up a runtime + server on a loopback port.
func startService(t *testing.T) (*Client, func()) {
	t.Helper()
	_, client, stop := startServiceRuntime(t)
	return client, stop
}

// startServiceRuntime is startService for tests that compare what
// travels over the wire with the runtime's own view.
func startServiceRuntime(t *testing.T) (*live.Runtime, *Client, func()) {
	t.Helper()
	g, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: 500, NumEdges: 2500, Exponent: 2.3,
		Kind: graph.Undirected, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cost := sim.DefaultCostModel()
	cost.Disk.SeekNanos = 50_000
	rt, err := live.NewAuction(g, live.Config{
		NumUnits: 4, MemoryPerUnit: 256 << 10, Cost: cost,
		TimeScale: 1e-4, TraceBuffer: 128,
	}, affinity.DefaultConfig(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(rt)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	return rt, client, func() {
		client.Close()
		srv.Close()
		rt.Close()
	}
}

func TestBFSOverWire(t *testing.T) {
	t.Parallel()
	client, stop := startService(t)
	defer stop()
	reply, err := client.Do(WireQuery{Op: "bfs", Start: 0, Depth: 2, MaxVisits: 100})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Visited <= 0 {
		t.Errorf("visited = %d", reply.Visited)
	}
	if reply.ExecNanos <= 0 {
		t.Errorf("exec = %d", reply.ExecNanos)
	}
}

func TestSSSPOverWire(t *testing.T) {
	t.Parallel()
	client, stop := startService(t)
	defer stop()
	reply, err := client.Do(WireQuery{Op: "sssp", Start: 0, Target: 1, Depth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Found && reply.PathLen <= 0 {
		t.Errorf("found with path length %d", reply.PathLen)
	}
}

func TestRWROverWireMatchesLocal(t *testing.T) {
	t.Parallel()
	client, stop := startService(t)
	defer stop()
	reply, err := client.Do(WireQuery{Op: "rwr", Start: 3, Steps: 200, RestartProb: 0.2, TopK: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// The walk is deterministic by seed, so wire and local agree.
	g, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: 500, NumEdges: 2500, Exponent: 2.3,
		Kind: graph.Undirected, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := traverse.Execute(g, traverse.Query{
		Op: traverse.OpRWR, Start: 3, Steps: 200, RestartProb: 0.2, TopK: 5, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Ranking) != len(want.Ranking) {
		t.Fatalf("ranking length %d vs %d", len(reply.Ranking), len(want.Ranking))
	}
	for i := range want.Ranking {
		if reply.Ranking[i].Vertex != int32(want.Ranking[i].Vertex) {
			t.Fatalf("ranking[%d] differs", i)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	t.Parallel()
	client, stop := startService(t)
	defer stop()
	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := client.Do(WireQuery{Op: "bfs", Start: int32(i % 40), Depth: 1})
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRemoteErrors(t *testing.T) {
	t.Parallel()
	client, stop := startService(t)
	defer stop()
	if _, err := client.Do(WireQuery{Op: "nope", Start: 0}); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("unknown op error = %v", err)
	}
	if _, err := client.Do(WireQuery{Op: "bfs", Start: 99999, Depth: 1}); err == nil {
		t.Error("invalid start vertex accepted")
	}
	if _, err := client.Do(WireQuery{Op: "bfs", Start: 0, VertexFilter: strings.Repeat(" ", maxRequestFrame)}); err == nil || !strings.Contains(err.Error(), "frame cap") {
		t.Errorf("request over the frame cap: error %v", err)
	}
	// A frame may carry any step count; one over the bound is refused
	// before it reaches a worker.
	for _, steps := range []int{traverse.MaxSteps + 1, math.MaxInt64} {
		reply, err := client.Do(WireQuery{Op: "rwr", Start: 3, Steps: steps, RestartProb: 0.2})
		if err == nil || reply.Code != CodeError || !strings.Contains(err.Error(), "RWR steps") {
			t.Errorf("%d steps: code %d, error %v; want CodeError on the step bound", steps, reply.Code, err)
		}
	}
	// The connection survives bad requests.
	if _, err := client.Do(WireQuery{Op: "bfs", Start: 0, Depth: 1}); err != nil {
		t.Errorf("connection broken after bad request: %v", err)
	}
}

func TestPredicatesOverWire(t *testing.T) {
	t.Parallel()
	// Graph where vertex properties gate traversal.
	b := graph.NewBuilder(graph.Undirected, 3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	for v := graph.VertexID(0); v < 3; v++ {
		kind := "good"
		if v == 1 {
			kind = "bad"
		}
		b.SetVertexProps(v, graph.Properties{"kind": graph.String(kind)})
	}
	g := b.Build()
	rt, err := live.New(g, live.Config{NumUnits: 1, TimeScale: 0}, nil)
	if err == nil {
		rt.Close()
		t.Fatal("nil scheduler accepted")
	}
	rt, err = live.NewAuction(g, live.Config{NumUnits: 1, TimeScale: 0}, affinity.DefaultConfig(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv, err := NewServer(rt)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	reply, err := client.Do(WireQuery{
		Op: "bfs", Start: 0, Depth: 5,
		VertexFilter: `kind == "good"`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Visited != 1 {
		t.Errorf("visited %d, want 1 (vertex 1 blocked by predicate)", reply.Visited)
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	t.Parallel()
	client, stop := startService(t)
	defer stop()
	client.Close()
	if _, err := client.Do(WireQuery{Op: "bfs", Start: 0, Depth: 1}); err == nil {
		t.Error("Do after Close succeeded")
	}
}

func TestServerValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewServer(nil); err == nil {
		t.Error("nil runtime accepted")
	}
}

func TestStatsRPC(t *testing.T) {
	t.Parallel()
	client, stop := startService(t)
	defer stop()
	for i := 0; i < 12; i++ {
		if _, err := client.Do(WireQuery{Op: "bfs", Start: int32(i), Depth: 1}); err != nil {
			t.Fatal(err)
		}
	}
	reply, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if reply.TotalCompleted != 12 {
		t.Errorf("completed = %d, want 12", reply.TotalCompleted)
	}
	if len(reply.Units) != 4 {
		t.Fatalf("units = %d, want 4", len(reply.Units))
	}
	sum := 0
	for _, u := range reply.Units {
		sum += u.Completed
	}
	if sum != 12 {
		t.Errorf("per-unit completions sum to %d", sum)
	}
}

func TestTwoClients(t *testing.T) {
	t.Parallel()
	client, stop := startService(t)
	defer stop()
	// A second connection to the same server.
	addr := client.conn.RemoteAddr().String()
	client2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for i := 0; i < 20; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			if _, err := client.Do(WireQuery{Op: "bfs", Start: int32(i), Depth: 1}); err != nil {
				errs <- err
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			if _, err := client2.Do(WireQuery{Op: "bfs", Start: int32(i + 100), Depth: 1}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPredicateFilterOverWire(t *testing.T) {
	t.Parallel()
	// Path 0-1-2-3 with ages; filter blocks expansion past age 40.
	b := graph.NewBuilder(graph.Undirected, 4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	for v := graph.VertexID(0); v < 4; v++ {
		b.SetVertexProps(v, graph.Properties{"age": graph.Int(int64(20 * (v + 1)))})
	}
	g := b.Build()
	rt, err := live.NewAuction(g, live.Config{NumUnits: 1, TimeScale: 0}, affinity.DefaultConfig(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv, err := NewServer(rt)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// ages: v0=20 v1=40 v2=60 v3=80. Filter age <= 40: vertices 0,1
	// pass, 2 fails (touched but not expanded) → visited 2.
	reply, err := client.Do(WireQuery{
		Op: "bfs", Start: 0, Depth: 5, VertexFilter: "age <= 40",
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Visited != 2 {
		t.Errorf("visited = %d, want 2", reply.Visited)
	}
	// Bad filter: clean remote error, connection survives.
	if _, err := client.Do(WireQuery{Op: "bfs", Start: 0, Depth: 1, VertexFilter: "age =="}); err == nil {
		t.Error("bad filter accepted")
	}
	if _, err := client.Do(WireQuery{Op: "bfs", Start: 0, Depth: 1}); err != nil {
		t.Errorf("connection broken after bad filter: %v", err)
	}
}

func TestAllOpsOverWire(t *testing.T) {
	t.Parallel()
	client, stop := startService(t)
	defer stop()
	// collab on the generic graph: every op path in ToQuery.
	if _, err := client.Do(WireQuery{Op: "collab", Start: 2, SimilarityThreshold: 0.5}); err != nil {
		t.Errorf("collab: %v", err)
	}
	if _, err := client.Do(WireQuery{
		Op: "bfs", Start: 0, Depth: 1,
		EdgeFilter:   `nope == "x" && has(nothing)`,
		VertexFilter: "has(anything) || true == true",
	}); err == nil {
		// VertexFilter "true == true": "true" parses as ident then
		// needs cmp — valid grammar (ident true, == , literal true).
		// Whether it matches is irrelevant; the call must round-trip.
		_ = err
	}
	// Bad edge filter surfaces cleanly.
	if _, err := client.Do(WireQuery{Op: "bfs", Start: 0, Depth: 1, EdgeFilter: "((("}); err == nil {
		t.Error("bad edge filter accepted")
	}
}

func TestListenOnBusyAddressFails(t *testing.T) {
	t.Parallel()
	client, stop := startService(t)
	defer stop()
	addr := client.conn.RemoteAddr().String()
	rtGraph, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: 50, NumEdges: 100, Exponent: 2.5, Kind: graph.Undirected, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := live.NewAuction(rtGraph, live.Config{NumUnits: 1, TimeScale: 0}, affinity.DefaultConfig(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv, err := NewServer(rt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen(addr); err == nil {
		srv.Close()
		t.Fatal("listening on a busy address should fail")
	}
	srv.Close()
}

func TestServerCloseIdempotentAndRejectsLateListen(t *testing.T) {
	t.Parallel()
	g, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: 50, NumEdges: 100, Exponent: 2.5, Kind: graph.Undirected, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := live.NewAuction(g, live.Config{NumUnits: 1, TimeScale: 0}, affinity.DefaultConfig(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv, err := NewServer(rt)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // idempotent
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Error("Listen after Close should fail")
	}
}

func TestDialFailure(t *testing.T) {
	t.Parallel()
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dialing a closed port should fail")
	}
}
