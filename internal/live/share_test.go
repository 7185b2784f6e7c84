package live

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"subtrav/internal/faultpoint"
	"subtrav/internal/graph"
	"subtrav/internal/sched"
	"subtrav/internal/traverse"
)

// The cross-query sharing layer must never change what a query
// returns — only how much disk work a concurrent mix costs. These
// tests pin live responses against direct single-source execution with
// batching on, and cover the expiry handling of a drained batch: the
// carried task's dequeue check and a member cancelled mid-charge.

// doAll submits every query concurrently and returns the responses in
// query order, failing the test on submission errors.
func doAll(t *testing.T, r *Runtime, queries []traverse.Query) []Response {
	t.Helper()
	out := make([]Response, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q traverse.Query) {
			defer wg.Done()
			resp, err := r.Do(q)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			out[i] = resp
		}(i, q)
	}
	wg.Wait()
	return out
}

func TestBatchTraversalsMatchDirectExecution(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := fastLiveConfig(2)
	cfg.BatchTraversals = 8
	cfg.QueueCap = 64
	// A wide batch window so concurrent submissions land on the queues
	// together and the workers actually drain multi-member batches.
	cfg.BatchWindow = 2 * time.Millisecond
	r, err := New(g, cfg, sched.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Batchable BFS and SSSP mixed with non-batchable RWR, which must
	// ride through the drain as an ordinary carry task.
	var queries []traverse.Query
	for i := 0; i < 36; i++ {
		switch i % 3 {
		case 0:
			queries = append(queries, traverse.Query{
				Op: traverse.OpBFS, Start: graph.VertexID(i % 20), Depth: 2, MaxVisits: 80,
			})
		case 1:
			queries = append(queries, traverse.Query{
				Op: traverse.OpSSSP, Start: graph.VertexID(i % 20), Target: graph.VertexID(500 + i), Depth: 5,
			})
		default:
			queries = append(queries, traverse.Query{
				Op: traverse.OpRWR, Start: graph.VertexID(i % 20), Steps: 50, RestartProb: 0.2, TopK: 3, Seed: uint64(i),
			})
		}
	}
	responses := doAll(t, r, queries)
	for i, resp := range responses {
		if resp.Err != nil {
			t.Fatalf("query %d (%s) failed: %v", i, queries[i].Op, resp.Err)
		}
		want, _, err := traverse.Execute(g, queries[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Result, want) {
			t.Fatalf("query %d (%s) result = %+v, want %+v", i, queries[i].Op, resp.Result, want)
		}
	}
	if m := r.Metrics(); m.Completed != int64(len(queries)) || !m.Conserved() {
		t.Errorf("metrics = %v, want %d completions, conserved", m, len(queries))
	}
}

func TestShareConfigValidation(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	for _, bad := range []int{-1, traverse.MaxBatch + 1} {
		cfg := fastLiveConfig(1)
		cfg.BatchTraversals = bad
		if _, err := New(g, cfg, sched.NewRoundRobin()); err == nil {
			t.Errorf("BatchTraversals = %d accepted", bad)
		}
	}
	cfg := fastLiveConfig(1)
	cfg.BatchTraversals = traverse.MaxBatch
	r, err := New(g, cfg, sched.NewRoundRobin())
	if err != nil {
		t.Fatalf("valid sharing config rejected: %v", err)
	}
	r.Close()
}

// gatedUnit starts a one-unit runtime and parks its worker inside a
// gate query's vertex predicate, so the test can line tasks up on the
// unit queue in a known order before the worker sees any of them.
// release lets the worker go; it drains the queue on its next wake.
func gatedUnit(t *testing.T, g *graph.Graph, cfg Config) (r *Runtime, release func()) {
	t.Helper()
	r, err := New(g, cfg, sched.NewBaseline(1))
	if err != nil {
		t.Fatal(err)
	}
	entered, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	pred := func(graph.Props) bool {
		once.Do(func() { close(entered) })
		<-gate
		return true
	}
	gateResp, err := r.Submit(traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 0, VertexPred: pred})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	return r, func() {
		close(gate)
		if resp := <-gateResp; resp.Err != nil {
			t.Errorf("gate query: %v", resp.Err)
		}
	}
}

// enqueueBehind submits q and waits until it sits on unit 0's queue
// with queued tasks in total, so queue order equals submission order.
func enqueueBehind(t *testing.T, r *Runtime, ctx context.Context, q traverse.Query, queued int32) <-chan Response {
	t.Helper()
	ch, err := r.SubmitCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); r.units[0].queued.Load() != queued; {
		if time.Now().After(deadline) {
			t.Fatalf("task never reached the unit queue (queued = %d, want %d)", r.units[0].queued.Load(), queued)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return ch
}

// TestCarriedTaskGetsDequeueDeadlineCheck: the non-batchable task that
// ends a drained batch waits behind the whole batch execution, so it
// must get the same expiry check as a task coming straight off the
// queue — not run its kernel only to be cancelled at the first charge.
func TestCarriedTaskGetsDequeueDeadlineCheck(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := fastLiveConfig(1)
	cfg.BatchTraversals = 8
	r, release := gatedUnit(t, g, cfg)
	defer r.Close()

	head := enqueueBehind(t, r, context.Background(),
		traverse.Query{Op: traverse.OpBFS, Start: 1, Depth: 2, MaxVisits: 40}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	carried := enqueueBehind(t, r, ctx,
		traverse.Query{Op: traverse.OpRWR, Start: 2, Steps: 200, RestartProb: 0.15, TopK: 5, Seed: 9}, 2)
	cancel() // expired while queued; the worker finds it as drainBatch's carry
	release()

	if resp := <-head; resp.Err != nil {
		t.Errorf("batchable head: %v", resp.Err)
	}
	resp := <-carried
	if !errors.Is(resp.Err, context.Canceled) || !strings.Contains(resp.Err.Error(), "dropped at dequeue") {
		t.Errorf("carried task error = %v, want dropped at dequeue: context canceled", resp.Err)
	}
	if resp.Exec != 0 {
		t.Errorf("carried task consumed %v of execution, want 0", resp.Exec)
	}
	if m := r.Metrics(); m.Completed != 2 || m.TimedOut != 1 || !m.Conserved() {
		t.Errorf("metrics = %v, want 2 completed + 1 timed out, conserved", m)
	}
}

// TestBatchMemberExpiredMidChargeKeepsSpanCounts: a batch member whose
// context ends while the shared trace is being charged resolves at
// once, and its span must still carry the cache and disk work done on
// its behalf up to that point, as a solo query's span does.
func TestBatchMemberExpiredMidChargeKeepsSpanCounts(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := fastLiveConfig(1)
	cfg.BatchTraversals = 2
	cfg.TraceBuffer = 16
	// Every miss takes 2 ms, so the two-member charge below lasts long
	// enough to cancel one member in the middle of it.
	cfg.Faults = faultpoint.NewSet(1).Add(faultpoint.DiskRead, faultpoint.Rule{Every: 1, Delay: 2 * time.Millisecond})
	r, release := gatedUnit(t, g, cfg)
	defer r.Close()

	survivor := enqueueBehind(t, r, context.Background(),
		traverse.Query{Op: traverse.OpBFS, Start: 1, Depth: 2, MaxVisits: 50}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const expiredStart = 2
	expired := enqueueBehind(t, r, ctx,
		traverse.Query{Op: traverse.OpBFS, Start: expiredStart, Depth: 2, MaxVisits: 50}, 2)
	release()
	// One read is the gate query's; the third begins once the batch's
	// first miss has been paid in full.
	for deadline := time.Now().Add(10 * time.Second); cfg.Faults.Fired(faultpoint.DiskRead) < 3; {
		if time.Now().After(deadline) {
			t.Fatal("batch charge never reached its second miss")
		}
		time.Sleep(50 * time.Microsecond)
	}
	cancel()

	resp := <-expired
	if !errors.Is(resp.Err, context.Canceled) || !strings.Contains(resp.Err.Error(), "cancelled mid-traversal") {
		t.Fatalf("expired member error = %v, want cancelled mid-traversal: context canceled", resp.Err)
	}
	if resp := <-survivor; resp.Err != nil {
		t.Errorf("surviving member: %v", resp.Err)
	}
	found := false
	for _, s := range r.Trace(16) {
		if s.Start != expiredStart {
			continue
		}
		found = true
		if s.CacheHits+s.CacheMisses == 0 {
			t.Errorf("expired member's span lost its counts: %+v", s)
		}
	}
	if !found {
		t.Error("no span for the expired member")
	}
	if m := r.Metrics(); m.Completed != 2 || m.TimedOut != 1 || !m.Conserved() {
		t.Errorf("metrics = %v, want 2 completed + 1 timed out, conserved", m)
	}
}
