// Command subtrav-client drives a subtrav-service instance: it issues
// a stream of traversal queries over TCP and reports throughput and
// latency.
//
// Usage:
//
//	subtrav-client -addr 127.0.0.1:7070 -op bfs -n 1000 -concurrency 16
//	subtrav-client -op sssp -start 3 -target 77 -depth 4 -n 1
//	subtrav-client -trace 20             # dump the last 20 trace spans
//	subtrav-client -trace 20 -trace-csv  # ... as CSV for offline tooling
//	subtrav-client -watch 1s             # live per-unit stats refresh
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"subtrav/internal/metrics"
	"subtrav/internal/obs"
	"subtrav/internal/service"
	"subtrav/internal/xrand"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7070", "service address")
		op          = flag.String("op", "bfs", "query op: bfs, sssp, collab, rwr")
		start       = flag.Int("start", -1, "start vertex (-1: random per query)")
		target      = flag.Int("target", 0, "SSSP target vertex")
		depth       = flag.Int("depth", 2, "BFS depth / SSSP length bound")
		maxVisits   = flag.Int("max-visits", 300, "BFS visit cap (0 = unbounded)")
		steps       = flag.Int("steps", 300, "RWR steps")
		restart     = flag.Float64("restart", 0.2, "RWR restart probability")
		topK        = flag.Int("topk", 10, "RWR top-K")
		threshold   = flag.Float64("threshold", 0.3, "collab similarity threshold")
		filter      = flag.String("filter", "", `vertex predicate expression, e.g. 'age >= 30 && has(photo)'`)
		edgeFilter  = flag.String("edge-filter", "", "edge predicate expression")
		n           = flag.Int("n", 100, "number of queries")
		concurrency = flag.Int("concurrency", 8, "concurrent in-flight queries")
		seed        = flag.Uint64("seed", 1, "random seed for start vertices")
		vertexRange = flag.Int("vertices", 20000, "random start range when -start=-1")
		timeout     = flag.Duration("timeout", 0, "per-query server-side deadline (0 = none)")
		retries     = flag.Int("retries", 4, "attempts per query when the server rejects under backpressure")
		retryBase   = flag.Duration("retry-base", time.Millisecond, "base delay of the jittered exponential backoff")

		trace    = flag.Int("trace", 0, "dump the last N trace spans from the server and exit (0 = run queries)")
		traceCSV = flag.Bool("trace-csv", false, "with -trace, emit CSV (obs.SpanCSVHeader, the schema a simulated trace renders to as well)")
		watch    = flag.Duration("watch", 0, "re-poll Stats at this interval, one line per unit, until interrupted (0 = run queries)")
		watchN   = flag.Int("watch-n", 0, "with -watch, stop after this many refreshes (0 = until interrupted)")
	)
	flag.Parse()

	client, err := service.Dial(*addr)
	if err != nil {
		fatal(err)
	}
	defer client.Close()

	if *trace > 0 {
		if err := dumpTrace(client, *trace, *traceCSV); err != nil {
			fatal(err)
		}
		return
	}
	if *watch > 0 {
		if err := watchStats(client, *watch, *watchN); err != nil {
			fatal(err)
		}
		return
	}

	rng := xrand.New(*seed)
	queries := make([]service.WireQuery, *n)
	for i := range queries {
		s := int32(*start)
		if *start < 0 {
			s = int32(rng.Intn(*vertexRange))
		}
		queries[i] = service.WireQuery{
			Op: *op, Start: s, Target: int32(*target),
			Depth: *depth, MaxVisits: *maxVisits,
			Steps: *steps, RestartProb: *restart, TopK: *topK,
			SimilarityThreshold: *threshold,
			VertexFilter:        *filter,
			EdgeFilter:          *edgeFilter,
			Seed:                rng.Uint64(),
		}
	}

	policy := service.RetryPolicy{MaxAttempts: *retries, BaseDelay: *retryBase}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		lats     []int64
		failures atomic.Int64
		timeouts atomic.Int64
		visited  atomic.Int64
	)
	sem := make(chan struct{}, *concurrency)
	begin := time.Now()
	for i := range queries {
		wg.Add(1)
		sem <- struct{}{}
		go func(q service.WireQuery) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			reply, err := client.DoRetry(q, *timeout, policy)
			if err != nil {
				if errors.Is(err, service.ErrDeadline) {
					timeouts.Add(1)
				} else {
					failures.Add(1)
				}
				return
			}
			visited.Add(int64(reply.Visited))
			mu.Lock()
			lats = append(lats, time.Since(t0).Nanoseconds())
			mu.Unlock()
		}(queries[i])
	}
	wg.Wait()
	elapsed := time.Since(begin)

	ok := int64(len(lats))
	fmt.Printf("queries: %d ok, %d failed, %d deadline-missed, %d backoff retries in %v → %.1f q/s\n",
		ok, failures.Load(), timeouts.Load(), client.Retries(),
		elapsed.Round(time.Millisecond), metrics.Throughput(ok, elapsed))
	fmt.Printf("latency: %v\n", metrics.SummarizeLatencies(lats))
	fmt.Printf("vertices visited: %d total\n", visited.Load())

	if stats, err := client.Stats(); err == nil {
		c := stats.Counters
		fmt.Printf("service totals: submitted=%d completed=%d rejected=%d timed-out=%d; per-unit:",
			c.Submitted, c.Completed, c.Rejected, c.TimedOut)
		for _, u := range stats.Units {
			fmt.Printf(" %d", u.Completed)
		}
		fmt.Println()
	}
	if failures.Load() > 0 {
		os.Exit(1)
	}
}

// dumpTrace prints the server's last n trace spans, human-readable or
// as CSV matching obs.SpanCSVHeader.
func dumpTrace(client *service.Client, n int, asCSV bool) error {
	spans, err := client.Trace(n)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		fmt.Println("no spans (server tracing disabled or no completed queries yet)")
		return nil
	}
	if asCSV {
		fmt.Println(obs.SpanCSVHeader)
		for _, w := range spans {
			fmt.Println(w.CSVRow())
		}
		return nil
	}
	fmt.Printf("%-8s %-6s %-4s %-9s %-9s %-9s %-10s %-6s %-6s %s\n",
		"task", "op", "unit", "wait", "exec", "disk-wait", "hits/miss", "aff", "rounds", "outcome")
	for _, w := range spans {
		flags := ""
		if w.Degraded {
			flags += " degraded"
		}
		if w.FellBack {
			flags += " fell-back"
		}
		if w.EmptyRow {
			flags += " no-affinity"
		}
		outcome := w.Outcome + flags
		if w.Err != "" {
			outcome += " (" + w.Err + ")"
		}
		fmt.Printf("%-8d %-6s %-4d %-9v %-9v %-9v %4d/%-5d %-6.3f %-6d %s\n",
			w.QueryID, w.Op, w.Unit,
			time.Duration(w.WaitNanos).Round(time.Microsecond),
			time.Duration(w.ExecNanos).Round(time.Microsecond),
			time.Duration(w.DiskWaitNanos).Round(time.Microsecond),
			w.CacheHits, w.CacheMisses, w.Affinity, w.AuctionRounds, outcome)
	}
	return nil
}

// watchStats re-polls Stats every interval and prints a compact
// one-line-per-unit refresh: queue length, completion rate since the
// previous poll, and cache hit rate.
func watchStats(client *service.Client, interval time.Duration, maxPolls int) error {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	prev := map[int32]int{}
	prevAt := time.Now()
	for poll := 0; maxPolls == 0 || poll < maxPolls; poll++ {
		stats, err := client.Stats()
		if err != nil {
			return err
		}
		now := time.Now()
		dt := now.Sub(prevAt).Seconds()
		c := stats.Counters
		fmt.Printf("-- %s  submitted=%d completed=%d rejected=%d timed-out=%d in-flight=%d\n",
			now.Format("15:04:05"), c.Submitted, c.Completed, c.Rejected, c.TimedOut,
			c.Submitted-c.Completed-c.Rejected-c.TimedOut)
		for _, u := range stats.Units {
			rate := 0.0
			if last, ok := prev[u.Unit]; ok && dt > 0 {
				rate = float64(u.Completed-last) / dt
			}
			busy := " "
			if u.Busy {
				busy = "*"
			}
			fmt.Printf("unit %2d%s q=%-3d done=%-7d %7.1f/s hit=%5.1f%%\n",
				u.Unit, busy, u.Queued, u.Completed, rate, 100*u.HitRate())
			prev[u.Unit] = u.Completed
		}
		prevAt = now
		select {
		case <-stop:
			return nil
		case <-ticker.C:
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "subtrav-client:", err)
	os.Exit(1)
}
