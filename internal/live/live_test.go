package live

import (
	"sync"
	"testing"
	"time"

	"subtrav/internal/affinity"
	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
	"subtrav/internal/sched"
	"subtrav/internal/sim"
	"subtrav/internal/traverse"
)

func liveGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: 1000, NumEdges: 5000, Exponent: 2.3,
		Kind: graph.Undirected, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func fastLiveConfig(units int) Config {
	cost := sim.DefaultCostModel()
	cost.Disk.SeekNanos = 50_000
	return Config{
		NumUnits:      units,
		MemoryPerUnit: 256 << 10,
		Cost:          cost,
		TimeScale:     1e-4,
		BatchWindow:   50 * time.Microsecond,
	}
}

func TestDoExecutesQuery(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	r, err := New(g, fastLiveConfig(2), sched.NewBaseline(1))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	resp, err := r.Do(traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 2, MaxVisits: 100})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp.Result.Visited <= 0 {
		t.Errorf("visited = %d", resp.Result.Visited)
	}
	if resp.Unit < 0 || resp.Unit >= 2 {
		t.Errorf("unit = %d", resp.Unit)
	}
	if resp.Exec <= 0 {
		t.Errorf("exec duration = %v", resp.Exec)
	}
}

func TestResultsMatchDirectExecution(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	r, err := New(g, fastLiveConfig(4), sched.NewBaseline(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	q := traverse.Query{Op: traverse.OpRWR, Start: 5, Steps: 200, RestartProb: 0.2, TopK: 5, Seed: 77}
	want, _, err := traverse.Execute(g, q)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := r.Do(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Ranking) != len(want.Ranking) {
		t.Fatalf("ranking lengths differ: %d vs %d", len(resp.Result.Ranking), len(want.Ranking))
	}
	for i := range want.Ranking {
		if resp.Result.Ranking[i] != want.Ranking[i] {
			t.Fatalf("ranking[%d] = %+v, want %+v", i, resp.Result.Ranking[i], want.Ranking[i])
		}
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	r, err := NewAuction(g, fastLiveConfig(4), affinity.DefaultConfig(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := r.Do(traverse.Query{
				Op: traverse.OpBFS, Start: graph.VertexID(i % 50), Depth: 2, MaxVisits: 80,
			})
			if err != nil {
				errs <- err
				return
			}
			if resp.Err != nil {
				errs <- resp.Err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := r.Completed(); got != n {
		t.Errorf("completed = %d, want %d", got, n)
	}
}

func TestAffinityRoutingWarmsCaches(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	r, err := NewAuction(g, fastLiveConfig(4), affinity.DefaultConfig(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Repeated queries on the same neighborhood should end up on the
	// same unit once signatures exist.
	q := traverse.Query{Op: traverse.OpBFS, Start: 3, Depth: 2, MaxVisits: 60}
	first, err := r.Do(q)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	const repeats = 10
	for i := 0; i < repeats; i++ {
		resp, err := r.Do(q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Unit == first.Unit {
			same++
		}
	}
	if same < repeats*7/10 {
		t.Errorf("only %d/%d repeats landed on unit %d; affinity routing ineffective", same, repeats, first.Unit)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	r, err := New(g, fastLiveConfig(2), sched.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := r.Submit(traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 1}); err != ErrClosed {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	r.Close() // idempotent
}

func TestCloseDrainsPending(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	r, err := New(g, fastLiveConfig(2), sched.NewLeastLoaded())
	if err != nil {
		t.Fatal(err)
	}
	var chans []<-chan Response
	for i := 0; i < 50; i++ {
		ch, err := r.Submit(traverse.Query{Op: traverse.OpBFS, Start: graph.VertexID(i), Depth: 1})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	r.Close()
	for i, ch := range chans {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Errorf("task %d: %v", i, resp.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("task %d never completed after Close", i)
		}
	}
}

func TestInvalidQueryRejected(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	r, err := New(g, fastLiveConfig(1), sched.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Submit(traverse.Query{Op: traverse.OpBFS, Start: -1}); err == nil {
		t.Error("invalid query accepted")
	}
	if c := r.Metrics(); c.Submitted != 0 {
		t.Errorf("rejected-at-validation query counted as submitted: %+v", c)
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	if _, err := New(nil, fastLiveConfig(1), sched.NewRoundRobin()); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := New(g, fastLiveConfig(1), nil); err == nil {
		t.Error("nil scheduler accepted")
	}
	cfg := fastLiveConfig(0)
	if _, err := New(g, cfg, sched.NewRoundRobin()); err == nil {
		t.Error("zero units accepted")
	}
	cfg = fastLiveConfig(1)
	cfg.TimeScale = -1
	if _, err := New(g, cfg, sched.NewRoundRobin()); err == nil {
		t.Error("negative time scale accepted")
	}
}

func TestStatsSnapshot(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	r, err := New(g, fastLiveConfig(3), sched.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := r.Do(traverse.Query{Op: traverse.OpBFS, Start: graph.VertexID(i % 20), Depth: 1}); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	stats := r.Stats()
	if len(stats) != 3 {
		t.Fatalf("stats for %d units", len(stats))
	}
	total := 0
	for _, s := range stats {
		total += s.Completed
		if s.Busy || s.Queued != 0 {
			t.Errorf("unit %d not quiesced after Close: %+v", s.Unit, s)
		}
	}
	if total != 30 {
		t.Errorf("completed sum = %d, want 30", total)
	}
}
