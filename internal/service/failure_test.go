package service

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"subtrav/internal/affinity"
	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
	"subtrav/internal/live"
	"subtrav/internal/sim"
)

// startSaturableService runs a deliberately tiny deployment — one slow
// unit, MaxPending 2 — so a handful of concurrent queries saturates it.
func startSaturableService(t *testing.T, cfg live.Config) (*Client, *live.Runtime, func()) {
	t.Helper()
	srv, rt, addr := startServer(t, cfg)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return client, rt, func() {
		client.Close()
		srv.Close()
		rt.Close()
	}
}

// startServer serves a runtime with cfg on the 500-vertex test graph
// and returns the address it listens on.
func startServer(t *testing.T, cfg live.Config) (*Server, *live.Runtime, string) {
	t.Helper()
	g, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: 500, NumEdges: 2500, Exponent: 2.3,
		Kind: graph.Undirected, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := live.NewAuction(g, cfg, affinity.DefaultConfig(), 1e-3)
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
	return srv, rt, addr.String()
}

// dialRaw opens a connection that speaks frames by hand.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// frameOf encodes a query request.
func frameOf(t *testing.T, id uint64, q WireQuery) []byte {
	t.Helper()
	frame, err := appendRequest(nil, &Request{ID: id, Query: q})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

func slowServiceConfig() live.Config {
	cost := sim.DefaultCostModel()
	cost.Disk.SeekNanos = 2_000_000 // 2 ms per miss at TimeScale 1
	cost.Disk.Channels = 1
	return live.Config{
		NumUnits: 1, MemoryPerUnit: 256 << 10, Cost: cost,
		TimeScale: 1, QueueCap: 1, MaxPending: 2,
	}
}

// TestRejectionThenRetrySucceeds is the backpressure acceptance
// scenario: a client hitting a full queue receives an explicit
// rejection (not a hang), and the same query then succeeds through
// DoRetry's backoff loop.
func TestRejectionThenRetrySucceeds(t *testing.T) {
	t.Parallel()
	client, rt, stop := startSaturableService(t, slowServiceConfig())
	defer stop()

	q := WireQuery{Op: "bfs", Start: 0, Depth: 2, MaxVisits: 20}

	// Flood without retries: with MaxPending=2 and ~40 ms per query,
	// most of these must be rejected explicitly.
	var wg sync.WaitGroup
	var rejected, ok int
	var mu sync.Mutex
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reply, err := client.DoTimeout(WireQuery{Op: "bfs", Start: int32(i * 13 % 500), Depth: 2, MaxVisits: 20}, 0)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrRejected):
				rejected++
				if reply.RetryAfterNanos <= 0 {
					t.Errorf("rejection carried no retry-after hint: %+v", reply)
				}
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if rejected == 0 {
		t.Fatal("no explicit rejections from a saturated service")
	}
	if ok == 0 {
		t.Fatal("no query got through at all")
	}

	// The same pressure with DoRetry: backoff absorbs the rejections.
	var retryWg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		retryWg.Add(1)
		go func(i int) {
			defer retryWg.Done()
			policy := RetryPolicy{MaxAttempts: 50, BaseDelay: 5 * time.Millisecond, Seed: uint64(i + 1)}
			if _, err := client.DoRetry(q, 0, policy); err != nil {
				errs <- err
			}
		}(i)
	}
	retryWg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("DoRetry failed despite backoff: %v", err)
	}
	if client.Retries() == 0 {
		t.Error("no backoff retries were needed — the service never pushed back")
	}

	m := rt.Metrics()
	if int(m.Rejected) < rejected {
		t.Errorf("runtime counted %d rejections, client saw %d", m.Rejected, rejected)
	}
	if !m.Conserved() {
		t.Errorf("not conserved: %v", m)
	}
}

// TestDeadlineOverWire is the deadline acceptance scenario: a query
// whose deadline expires mid-traversal comes back as ErrDeadline, the
// unit is reusable, and the drop shows up in the service counters.
func TestDeadlineOverWire(t *testing.T) {
	t.Parallel()
	cfg := slowServiceConfig()
	cfg.MaxPending = 8
	client, rt, stop := startSaturableService(t, cfg)
	defer stop()

	// ~40 misses × 2 ms ≫ the 10 ms deadline.
	reply, err := client.DoTimeout(WireQuery{Op: "bfs", Start: 0, Depth: 3, MaxVisits: 40}, 10*time.Millisecond)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v (reply %+v), want ErrDeadline", err, reply)
	}

	// The unit is reusable: an undeadlined query completes.
	if _, err := client.Do(WireQuery{Op: "bfs", Start: 0, Depth: 1, MaxVisits: 5}); err != nil {
		t.Fatalf("service unusable after a deadline miss: %v", err)
	}

	// The drop is visible in the counters once the runtime resolves it.
	deadline := time.Now().Add(5 * time.Second)
	for rt.Metrics().TimedOut == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	c := stats.Counters
	if c.TimedOut < 1 {
		t.Errorf("wire counters show no timeout: %+v", c)
	}
	if c.Submitted != c.Completed+c.Rejected+c.TimedOut {
		t.Errorf("wire counters not conserved: %+v", c)
	}
}

// TestDoRetryGivesUp: when saturation persists past MaxAttempts the
// last rejection is surfaced, still matching ErrRejected.
func TestDoRetryGivesUp(t *testing.T) {
	t.Parallel()
	client, _, stop := startSaturableService(t, slowServiceConfig())
	defer stop()

	// Keep the single unit pinned down.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = client.DoTimeout(WireQuery{Op: "bfs", Start: int32(i), Depth: 3, MaxVisits: 60}, 0)
		}(i)
	}
	defer wg.Wait()
	time.Sleep(5 * time.Millisecond) // let the pinners be admitted

	policy := RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond, MaxDelay: 2 * time.Microsecond, Seed: 7}
	_, err := client.DoRetry(WireQuery{Op: "bfs", Start: 9, Depth: 2, MaxVisits: 20}, 0, policy)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected after exhausting attempts", err)
	}
}

// TestRetryPolicyDefaults pins the documented defaults.
func TestRetryPolicyDefaults(t *testing.T) {
	t.Parallel()
	p := RetryPolicy{}.withDefaults()
	if p.MaxAttempts != 4 || p.BaseDelay != time.Millisecond || p.MaxDelay != 100*time.Millisecond {
		t.Errorf("defaults = %+v", p)
	}
}

// TestDisconnectCancelsQuery: a client that drops its connection while
// its query executes cancels that query. The runtime counts it timed
// out, and its unit serves the next connection.
func TestDisconnectCancelsQuery(t *testing.T) {
	t.Parallel()
	srv, rt, addr := startServer(t, slowServiceConfig())
	defer rt.Close()
	defer srv.Close()

	// Hundreds of misses at 2 ms each: seconds, were it not cancelled.
	raw := dialRaw(t, addr)
	if _, err := raw.Write(frameOf(t, 1, WireQuery{Op: "bfs", Start: 0, Depth: 3, MaxVisits: 400})); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the query executes", func() bool { return rt.Stats()[0].Busy })
	raw.Close()
	waitFor(t, "the query times out", func() bool { return rt.Metrics().TimedOut == 1 })

	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Do(WireQuery{Op: "bfs", Start: 0, Depth: 1, MaxVisits: 5}); err != nil {
		t.Fatalf("the unit is not free after the disconnect: %v", err)
	}
	if m := rt.Metrics(); !m.Conserved() || m.Completed != 1 || m.TimedOut != 1 {
		t.Errorf("counters %v, want one completion and one timeout, conserved", m)
	}
}

// TestSlowReaderClosedAtBacklog: a client that sends queries and never
// reads their replies is closed once it owes maxBacklog bytes, while
// the workers that complete its queries keep serving another
// connection.
func TestSlowReaderClosedAtBacklog(t *testing.T) {
	t.Parallel()
	srv, rt, addr := startServer(t, live.Config{
		NumUnits: 2, MemoryPerUnit: 1 << 20, TimeScale: 1e-6,
		MaxPending: 1 << 16,
	})
	defer rt.Close()
	defer srv.Close()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Each reply recommends a few hundred products: ≈ 5 KiB. The flood
	// has a tenant of its own, so its replies can be counted.
	heavy := WireQuery{Op: "collab", Start: 3, Tenant: "flood"}
	raw := dialRaw(t, addr)
	defer raw.Close()
	raw.(*net.TCPConn).SetReadBuffer(4 << 10)
	frame := frameOf(t, 1, heavy) // the replies are never read, so one ID will do
	// 64 MiB of replies, far past the backlog and any socket buffers:
	// a server that lets the debt grow is caught before it grows far.
	// The bound counts replies the runtime completed, not frames
	// written: the socket buffers hold thousands of frames the server
	// has not read yet, so a flood can write all of them before the
	// server has owed anything.
	const unread = 64 << 20 / (5 << 10)
	replied := func() int64 {
		for _, ts := range rt.TenantStatsSnapshot() {
			if ts.Tenant == heavy.Tenant {
				return ts.Completed
			}
		}
		return 0
	}
	flooded := make(chan error, 1)
	go func() {
		for replied() < unread {
			// Keep the queues short, so the other connection's queries
			// do not wait behind thousands of these.
			for rt.InFlight() > 64 {
				time.Sleep(100 * time.Microsecond)
			}
			if _, err := raw.Write(frame); err != nil {
				flooded <- err
				return
			}
		}
		flooded <- nil
	}()

	served := 0
	for done := false; !done; {
		select {
		case err := <-flooded:
			if err == nil {
				t.Fatalf("a client that never reads was not closed after %d unread replies", unread)
			}
			done = true
		default:
			if _, err := client.Do(WireQuery{Op: "bfs", Start: int32(served % 500), Depth: 1}); err != nil {
				t.Fatalf("the other connection is not served: %v", err)
			}
			served++
		}
	}
	if served == 0 {
		t.Error("no query of the other connection was served during the flood")
	}
	waitFor(t, "the runtime drains", func() bool { return rt.InFlight() == 0 })
	if m := rt.Metrics(); !m.Conserved() {
		t.Errorf("not conserved: %v", m)
	}
}

// TestHalfOpenClientDoesNotBlockClose: a client that sends part of a
// frame and stalls holds its connection's reader in a read; Close
// still returns, and the query another connection has in flight is
// cancelled and counted.
func TestHalfOpenClientDoesNotBlockClose(t *testing.T) {
	t.Parallel()
	srv, rt, addr := startServer(t, slowServiceConfig())
	defer rt.Close()

	raw := dialRaw(t, addr)
	defer raw.Close()
	frame := frameOf(t, 1, WireQuery{Op: "bfs", Start: 0, Depth: 1})
	if _, err := raw.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	replied := make(chan error, 1)
	go func() {
		_, err := client.Do(WireQuery{Op: "bfs", Start: 0, Depth: 3, MaxVisits: 400})
		replied <- err
	}()
	waitFor(t, "the query executes", func() bool { return rt.Stats()[0].Busy })

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close blocked on a half-open connection")
	}
	if err := <-replied; err == nil {
		t.Error("a query cut off by Close reported success")
	}
	waitFor(t, "the query is resolved", func() bool { return rt.InFlight() == 0 })
	if m := rt.Metrics(); !m.Conserved() || m.TimedOut != 1 {
		t.Errorf("counters %v, want the cut-off query timed out, conserved", m)
	}
}
