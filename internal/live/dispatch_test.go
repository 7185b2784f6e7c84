package live

import (
	"context"
	"testing"
	"time"

	"subtrav/internal/graph"
	"subtrav/internal/sched"
	"subtrav/internal/traverse"
)

// The dispatcher follows the simulator's rule: every wake runs rounds
// until nothing is pending or no unit has room, so no task waits for a
// peer. These tests pin it with idle units and with busy ones.

// TestLoneQueryIsScheduledPromptly: one query on a runtime whose units
// are all idle is scheduled and resolved on arrival.
func TestLoneQueryIsScheduledPromptly(t *testing.T) {
	t.Parallel()
	const prompt = time.Second // generous: the path holds no timer
	g := liveGraph(t)
	cfg := fastLiveConfig(2)
	cfg.TraceBuffer = 4
	r, err := New(g, cfg, sched.NewLeastLoaded())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ch, err := r.Submit(traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 2, MaxVisits: 40})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case resp := <-ch:
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
	case <-time.After(prompt):
		t.Fatalf("a lone query on idle units was still unresolved after %v", prompt)
	}
	spans := r.Trace(1)
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if held := time.Duration(spans[0].ScheduleNanos - spans[0].SubmitNanos); held >= prompt {
		t.Errorf("submit to schedule took %v, want less than %v", held, prompt)
	}
}

// TestBusyUnitsTakeAPartialRound: with every unit parked, each of k <
// NumUnits queries submitted one at a time reaches a unit queue before
// the next is submitted: a round does not wait for peers when no unit
// is idle.
func TestBusyUnitsTakeAPartialRound(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	const units, k = 3, 2
	// Least-loaded sends each gate to a unit no earlier gate holds.
	r := newRuntime(t, g, fastLiveConfig(units), sched.NewLeastLoaded())
	var gates []func() Response
	for range units {
		gates = append(gates, parkUnit(t, r))
	}

	// Each query must sit on a unit queue before the next is submitted.
	total := func() (n int) {
		for u := range r.units {
			n += queued(r, u)
		}
		return n
	}
	var pending []<-chan Response
	for i := 0; i < k; i++ {
		ch, err := r.Submit(traverse.Query{Op: traverse.OpBFS, Start: graph.VertexID(10 + i), Depth: 2, MaxVisits: 40})
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, ch)
		deadline := time.Now().Add(10 * time.Second)
		for total() != i+1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := total(); n != i+1 {
			t.Fatalf("query %d alone: %d of %d tasks reached a unit queue", i, n, i+1)
		}
	}
	for _, release := range gates {
		if resp := release(); resp.Err != nil {
			t.Errorf("gate query: %v", resp.Err)
		}
	}
	for _, ch := range pending {
		if resp := <-ch; resp.Err != nil {
			t.Error(resp.Err)
		}
	}
}

// pinScheduler places every task on unit 0.
type pinScheduler struct{}

func (pinScheduler) Name() string { return "pin" }

func (pinScheduler) Assign(tasks []*sched.Task, _ []sched.UnitState) []int {
	return make([]int, len(tasks))
}

// TestFullQueuePlacementMovesToLeastLoaded: a scheduler that sends
// everything to one parked unit fills that unit's queue to QueueCap and
// no further; every later placement moves to the least-loaded unit,
// which serves it. Each span describes the placement the lifecycle
// made, not the scheduler's pick: the queue the task joined and the
// units' imbalance after its round.
func TestFullQueuePlacementMovesToLeastLoaded(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := fastLiveConfig(2)
	cfg.QueueCap = 2
	cfg.TraceBuffer = 16
	r := newRuntime(t, g, cfg, pinScheduler{})
	release := parkUnit(t, r) // on unit 0, like everything else
	const n = 6
	query := func(i int) traverse.Query {
		return traverse.Query{Op: traverse.OpBFS, Start: graph.VertexID(i + 1), Depth: 2, MaxVisits: 40}
	}
	// Unit 0's queue fills to QueueCap behind the gate; the rest run on
	// unit 1, one round each, so every one of them finds unit 1 idle. A
	// query left on the parked unit would wait for good: it gets a
	// deadline instead.
	var chans []<-chan Response
	for i := 0; i < cfg.QueueCap; i++ {
		chans = append(chans, enqueueBehind(t, r, context.Background(), query(i), int32(i+1)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := cfg.QueueCap; i < n; i++ {
		if resp, err := r.DoCtx(ctx, query(i)); err != nil || resp.Err != nil || resp.Unit != 1 {
			t.Fatalf("query %d: unit %d, %v / %v, want unit 1", i, resp.Unit, err, resp.Err)
		}
	}
	if q := queued(r, 0); q != cfg.QueueCap {
		t.Errorf("parked unit queues %d tasks, want QueueCap %d", q, cfg.QueueCap)
	}
	if resp := release(); resp.Err != nil {
		t.Fatalf("gate query: %v", resp.Err)
	}
	for i, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Errorf("query %d: %v", i, resp.Err)
		}
	}
	moved := 0
	for _, s := range r.Trace(16) {
		i := int(s.Start) - 1
		if i < 0 {
			continue // the gate
		}
		// Unit 0 executes the gate and queues the first QueueCap, so
		// its effective load is i+1 after placing query i there. A
		// moved query joins unit 1's empty queue beside unit 0's full
		// one: loads QueueCap+1 and 1.
		wantUnit, wantQueue, wantImbalance := int32(0), i, 2.0
		if i >= cfg.QueueCap {
			moved++
			wantUnit, wantQueue, wantImbalance = 1, 0, float64(cfg.QueueCap+1)/(float64(cfg.QueueCap+2)/2)
		}
		if s.Unit != wantUnit || s.QueueLen != wantQueue || s.Imbalance != wantImbalance {
			t.Errorf("query %d: span reads unit %d, queue %d, imbalance %g; placed on unit %d behind %d, imbalance %g",
				i, s.Unit, s.QueueLen, s.Imbalance, wantUnit, wantQueue, wantImbalance)
		}
	}
	if moved != n-cfg.QueueCap {
		t.Errorf("%d queries ran on unit 1, want %d", moved, n-cfg.QueueCap)
	}
}
