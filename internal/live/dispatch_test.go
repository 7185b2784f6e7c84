package live

import (
	"context"
	"testing"
	"time"

	"subtrav/internal/graph"
	"subtrav/internal/sched"
	"subtrav/internal/traverse"
)

// The batch window exists to fill a round when waiting can improve it.
// These tests pin both sides of that rule: a task that meets an idle
// unit is scheduled at once, and a partial round that meets only busy
// units waits for its peers.

// TestLoneQueryIsNotHeldByTheWindow: one query on a runtime whose units
// are all idle is scheduled on arrival, not after the window.
func TestLoneQueryIsNotHeldByTheWindow(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := fastLiveConfig(2)
	cfg.BatchWindow = time.Second
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
	case <-time.After(cfg.BatchWindow / 2):
		t.Fatalf("a lone query on idle units was still unresolved after %v of a %v window", cfg.BatchWindow/2, cfg.BatchWindow)
	}
	spans := r.Trace(1)
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if held := time.Duration(spans[0].ScheduleNanos - spans[0].SubmitNanos); held >= cfg.BatchWindow {
		t.Errorf("submit to schedule took %v, want less than the %v window", held, cfg.BatchWindow)
	}
}

// TestWindowFillsARoundWhenEveryUnitIsBusy: with every unit parked,
// fewer than NumUnits tasks submitted inside the window are placed in
// one round once it has run.
func TestWindowFillsARoundWhenEveryUnitIsBusy(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	const units, k = 3, 2
	cfg := fastLiveConfig(units)
	cfg.BatchWindow = 250 * time.Millisecond
	cfg.TraceBuffer = 16
	// Least-loaded sends each gate to a unit no earlier gate holds.
	r, err := New(g, cfg, sched.NewLeastLoaded())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var gates []func() Response
	for range units {
		gates = append(gates, parkUnit(t, r))
	}

	starts := map[int32]bool{}
	pending := make([]<-chan Response, k)
	for i := range pending {
		start := graph.VertexID(10 + i)
		starts[int32(start)] = true
		ch, err := r.Submit(traverse.Query{Op: traverse.OpBFS, Start: start, Depth: 2, MaxVisits: 40})
		if err != nil {
			t.Fatal(err)
		}
		pending[i] = ch
	}
	// The round has been placed once both tasks sit on unit queues.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		n := 0
		for u := range r.units {
			n += queued(r, u)
		}
		if n == k {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d tasks reached a unit queue", n, k)
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

	var round, firstSubmit int64
	seen := 0
	for _, s := range r.Trace(16) {
		if !starts[s.Start] {
			continue
		}
		seen++
		if round == 0 {
			round, firstSubmit = s.ScheduleNanos, s.SubmitNanos
		}
		if s.ScheduleNanos != round {
			t.Errorf("task at %d scheduled at %d, want the round at %d", s.Start, s.ScheduleNanos, round)
		}
		firstSubmit = min(firstSubmit, s.SubmitNanos)
	}
	if seen != k {
		t.Fatalf("found %d spans of the %d tasks", seen, k)
	}
	if waited := time.Duration(round - firstSubmit); waited < cfg.BatchWindow {
		t.Errorf("round placed %v after the first submission, want the full %v window", waited, cfg.BatchWindow)
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
	r, err := New(g, cfg, pinScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	release := parkUnit(t, r) // on unit 0, like everything else
	const n = 6
	query := func(i int) traverse.Query {
		return traverse.Query{Op: traverse.OpBFS, Start: graph.VertexID(i + 1), Depth: 2, MaxVisits: 40}
	}
	// Unit 0's queue fills to QueueCap behind the gate; the rest run on
	// unit 1, one round each, so every one of them finds unit 1 idle.
	var chans []<-chan Response
	for i := 0; i < cfg.QueueCap; i++ {
		chans = append(chans, enqueueBehind(t, r, context.Background(), query(i), int32(i+1)))
	}
	for i := cfg.QueueCap; i < n; i++ {
		if resp, err := r.Do(query(i)); err != nil || resp.Err != nil || resp.Unit != 1 {
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
