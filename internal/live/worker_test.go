package live

import (
	"testing"
	"time"

	"subtrav/internal/graph"
	"subtrav/internal/sched"
	"subtrav/internal/traverse"
)

// pending returns how many admitted tasks no round has taken yet.
func pending(r *Runtime) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.life.Pending()
}

// TestCompletionWakesDispatcher: with its one unit at QueueCap the
// runtime holds submissions in the pending pool, and each completion,
// which makes room, wakes the dispatcher to place the next: nothing
// else would.
func TestCompletionWakesDispatcher(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := fastLiveConfig(1)
	cfg.QueueCap = 1
	cfg.MaxPending = 8
	r := newRuntime(t, g, cfg, sched.NewRoundRobin())
	release := parkUnit(t, r)
	const n = 3
	chans := make([]<-chan Response, n)
	for i := range chans {
		var err error
		if chans[i], err = r.Submit(traverse.Query{Op: traverse.OpBFS, Start: graph.VertexID(i), Depth: 2, MaxVisits: 40}); err != nil {
			t.Fatal(err)
		}
	}
	// The dispatcher has seen the submissions; the executing gate is
	// the unit's whole depth, so nothing may leave the pool.
	time.Sleep(20 * time.Millisecond)
	if p, q := pending(r), queued(r, 0); p != n || q != 0 {
		t.Fatalf("with the unit at QueueCap: %d pending, %d queued; want %d, 0", p, q, n)
	}
	if resp := release(); resp.Err != nil {
		t.Fatalf("gate query: %v", resp.Err)
	}
	for i, ch := range chans {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Errorf("query %d: %v", i, resp.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("query %d never placed after the unit made room", i)
		}
	}
	if m := r.Metrics(); m.Completed != n+1 || !m.Conserved() {
		t.Errorf("metrics = %v", m)
	}
}
