package live

import (
	"errors"
	"sync"
	"testing"
	"time"

	"subtrav/internal/graph"
	"subtrav/internal/sched"
	"subtrav/internal/traverse"
)

func TestCloseWithInFlightQueries(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := slowLiveConfig(2)
	r, err := New(g, cfg, sched.NewLeastLoaded())
	if err != nil {
		t.Fatal(err)
	}
	q := traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 2, MaxVisits: 20}
	var chans []<-chan Response
	for i := 0; i < 6; i++ {
		ch, err := r.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	// Close while queries are queued and executing: it must drain them,
	// not drop them.
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, ch := range chans {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Errorf("query %d failed during drain: %v", i, resp.Err)
			}
		default:
			t.Fatalf("query %d unresolved after Close", i)
		}
	}
	if m := r.Metrics(); m.Completed != 6 || !m.Conserved() {
		t.Errorf("metrics after drain: %v", m)
	}
}

func TestDoubleCloseReturnsErrClosed(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	r, err := New(g, fastLiveConfig(1), sched.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := r.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
}

func TestConcurrentCloseExactlyOneWins(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	r, err := New(g, fastLiveConfig(2), sched.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	const closers = 8
	errs := make([]error, closers)
	var wg sync.WaitGroup
	for i := 0; i < closers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = r.Close()
		}(i)
	}
	wg.Wait()
	var nilCount int
	for _, err := range errs {
		switch {
		case err == nil:
			nilCount++
		case !errors.Is(err, ErrClosed):
			t.Errorf("Close returned %v, want nil or ErrClosed", err)
		}
	}
	if nilCount != 1 {
		t.Errorf("%d Close calls returned nil, want exactly 1", nilCount)
	}
}

func TestCloseRacingSubmit(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := fastLiveConfig(4)
	r, err := New(g, cfg, sched.NewLeastLoaded())
	if err != nil {
		t.Fatal(err)
	}

	const submitters = 8
	perGoroutine := make([][]<-chan Response, submitters)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := traverse.Query{Op: traverse.OpBFS, Start: graph.VertexID((s*31 + i) % 500), Depth: 1, MaxVisits: 10}
				ch, err := r.Submit(q)
				switch {
				case err == nil:
					perGoroutine[s] = append(perGoroutine[s], ch)
				case errors.Is(err, ErrClosed):
					return
				case errors.Is(err, ErrQueueFull):
					time.Sleep(100 * time.Microsecond)
				default:
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(s)
	}
	time.Sleep(20 * time.Millisecond)
	closeErr := r.Close()
	close(stop)
	wg.Wait()
	if closeErr != nil {
		t.Fatalf("Close: %v", closeErr)
	}

	// Every accepted submission resolves exactly once, even those that
	// raced the shutdown.
	var n int
	for _, chans := range perGoroutine {
		for _, ch := range chans {
			n++
			select {
			case resp, ok := <-ch:
				if !ok {
					t.Error("response channel closed without a response")
				} else if resp.Err != nil {
					t.Errorf("accepted query failed: %v", resp.Err)
				}
			default:
				t.Error("accepted query unresolved after Close")
			}
		}
	}
	if n == 0 {
		t.Fatal("no submissions were accepted before Close")
	}
	m := r.Metrics()
	if int(m.Completed) != n {
		t.Errorf("Completed = %d, want %d accepted submissions", m.Completed, n)
	}
	if !m.Conserved() {
		t.Errorf("not conserved: %v", m)
	}

	// The runtime stays closed: late submissions fail cleanly.
	if _, err := r.Submit(traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 1}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close Submit = %v, want ErrClosed", err)
	}
}

// TestCloseWaitsForRoom: Close with submissions still pending behind a
// unit at QueueCap places them as the unit frees, runs them, and only
// then returns.
func TestCloseWaitsForRoom(t *testing.T) {
	t.Parallel()
	g := liveGraph(t)
	cfg := fastLiveConfig(1)
	cfg.QueueCap = 1
	cfg.MaxPending = 8
	r, err := New(g, cfg, sched.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	release := parkUnit(t, r)
	var chans []<-chan Response
	for i := 0; i < 4; i++ {
		ch, err := r.Submit(traverse.Query{Op: traverse.OpBFS, Start: graph.VertexID(i), Depth: 2, MaxVisits: 20})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	closed := make(chan error)
	go func() { closed <- r.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with the gate still running", err)
	case <-time.After(20 * time.Millisecond):
	}
	if resp := release(); resp.Err != nil {
		t.Fatalf("gate query: %v", resp.Err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, ch := range chans {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Errorf("query %d: %v", i, resp.Err)
			}
		default:
			t.Errorf("query %d unresolved after Close", i)
		}
	}
	if m := r.Metrics(); m.Completed != 5 || !m.Conserved() {
		t.Errorf("metrics after Close: %v", m)
	}
}
