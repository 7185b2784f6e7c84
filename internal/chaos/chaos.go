// Package chaos is a seeded stress harness for the live runtime: it
// drives hundreds of concurrent queries through a (typically
// fault-injected) deployment and checks the runtime's failure-semantics
// invariants from the outside:
//
//   - exactly-once resolution: every accepted submission delivers
//     exactly one Response — never zero, never two;
//   - bounded queues: no unit queue ever exceeds Config.QueueCap +
//     NumUnits − 1 — rounds run only while some unit holds fewer than
//     QueueCap tasks, and a placement on a full queue moves to the
//     least-loaded unit — and the in-flight count never exceeds
//     Config.MaxPending;
//   - conservation: at quiescence,
//     submitted = completed + rejected + timed-out holds exactly, and
//     the client-side view of each query's fate agrees with the
//     runtime's counters.
//
// Everything is seeded — the workload, the per-submitter retry jitter,
// and (via faultpoint) the fault schedule — so a failing run can be
// replayed. The package is used by its own tests (run under -race in
// CI) and is importable by benchmarks or soak tools.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"subtrav/internal/affinity"
	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
	"subtrav/internal/live"
	"subtrav/internal/metrics"
	"subtrav/internal/sched"
	"subtrav/internal/traverse"
	"subtrav/internal/xrand"
)

// Options configures one stress run.
type Options struct {
	// Seed drives the workload and the retry jitter (required, non-zero
	// recommended so runs are distinguishable).
	Seed uint64
	// Graph to traverse; nil generates a 500-vertex power-law graph
	// from Seed.
	Graph *graph.Graph
	// Config for the runtime under test. Zero-value fields take the
	// live package defaults.
	Config live.Config
	// Auction runs the paper's scheduler (live.NewAuction, its affinity
	// wired to the runtime's signatures) instead of least-loaded
	// placement.
	Auction bool

	// Submitters is the number of concurrent client goroutines
	// (default 8).
	Submitters int
	// Queries is the total number of queries across all submitters
	// (default 200).
	Queries int

	// DeadlineEvery gives every k-th query a Deadline-bounded context
	// (0 = no deadlines).
	DeadlineEvery int
	// Deadline is the per-query deadline used by DeadlineEvery.
	Deadline time.Duration

	// MaxRetries bounds the backoff retries a submitter spends on one
	// query after rejections (default 8). A query still rejected after
	// MaxRetries is counted in Report.GaveUp.
	MaxRetries int
	// RetryBase seeds the jittered exponential backoff (default 500µs).
	RetryBase time.Duration
}

func (o *Options) withDefaults() error {
	if o.Graph == nil {
		g, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
			NumVertices: 500, NumEdges: 2500, Exponent: 2.3,
			Kind: graph.Undirected, Seed: o.Seed,
		})
		if err != nil {
			return err
		}
		o.Graph = g
	}
	if o.Submitters <= 0 {
		o.Submitters = 8
	}
	if o.Queries <= 0 {
		o.Queries = 200
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 8
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 500 * time.Microsecond
	}
	if o.DeadlineEvery > 0 && o.Deadline <= 0 {
		return fmt.Errorf("chaos: DeadlineEvery set with no Deadline")
	}
	return nil
}

// Report is the outcome of a stress run, from the submitters' point of
// view plus the runtime's own counters.
type Report struct {
	// Accepted is how many submissions were admitted (each delivered
	// exactly one response).
	Accepted int64
	// RejectedAttempts counts every rejected Submit call, including
	// ones whose query was later admitted on retry.
	RejectedAttempts int64
	// GaveUp is how many queries stayed rejected after MaxRetries.
	GaveUp int64
	// Retries is the total number of backoff retries performed.
	Retries int64

	// Completed / Failed / TimedOut classify the responses received:
	// Failed are completions whose Err was a non-deadline execution
	// error; TimedOut are responses wrapping a context error.
	Completed int64
	Failed    int64
	TimedOut  int64

	// MaxQueued is the deepest unit queue observed while sampling.
	MaxQueued int
	// MaxInFlight is the highest InFlight() observed while sampling.
	MaxInFlight int

	// Metrics is the runtime's own final snapshot.
	Metrics metrics.Snapshot
}

// Run executes one seeded stress run and verifies the invariants,
// returning a non-nil error on any violation. The runtime is created,
// stressed, drained and closed inside Run.
func Run(opts Options) (*Report, error) {
	if err := opts.withDefaults(); err != nil {
		return nil, err
	}
	var rt *live.Runtime
	var err error
	if opts.Auction {
		rt, err = live.NewAuction(opts.Graph, opts.Config, affinity.DefaultConfig(), 1e-3)
	} else {
		rt, err = live.New(opts.Graph, opts.Config, sched.NewLeastLoaded())
	}
	if err != nil {
		return nil, err
	}
	cfg := opts.Config // after live.New, defaults are NOT echoed back; re-derive bounds below
	rep, runErr := stress(rt, opts)
	closeErr := rt.Close()
	if runErr != nil {
		return rep, runErr
	}
	if closeErr != nil {
		return rep, fmt.Errorf("chaos: Close: %w", closeErr)
	}
	rep.Metrics = rt.Metrics()
	return rep, verify(rt, rep, cfg, opts)
}

// stress drives the workload against an already-running runtime.
func stress(rt *live.Runtime, opts Options) (*Report, error) {
	rep := &Report{}
	var (
		accepted  atomic.Int64
		rejected  atomic.Int64
		gaveUp    atomic.Int64
		retries   atomic.Int64
		completed atomic.Int64
		failed    atomic.Int64
		timedOut  atomic.Int64

		violationMu sync.Mutex
		violation   error // first invariant violation
	)
	fail := func(err error) {
		violationMu.Lock()
		if violation == nil {
			violation = err
		}
		violationMu.Unlock()
	}

	// Sampler: watch queue depths and in-flight while the storm runs.
	sampleStop := make(chan struct{})
	var sampleWg sync.WaitGroup
	var maxQueued, maxInFlight atomic.Int64
	sampleWg.Add(1)
	go func() {
		defer sampleWg.Done()
		for {
			select {
			case <-sampleStop:
				return
			case <-time.After(200 * time.Microsecond):
			}
			for _, u := range rt.Stats() {
				if int64(u.Queued) > maxQueued.Load() {
					maxQueued.Store(int64(u.Queued))
				}
			}
			if n := int64(rt.InFlight()); n > maxInFlight.Load() {
				maxInFlight.Store(n)
			}
		}
	}()

	perSubmitter := opts.Queries / opts.Submitters
	var wg sync.WaitGroup
	for s := 0; s < opts.Submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := xrand.New(opts.Seed*1_000_003 + uint64(s) + 1)
			nv := opts.Graph.NumVertices()
			for i := 0; i < perSubmitter; i++ {
				q := traverse.Query{
					Op:        traverse.OpBFS,
					Start:     graph.VertexID(rng.Intn(nv)),
					Depth:     1 + rng.Intn(3),
					MaxVisits: 5 + rng.Intn(40),
				}
				ctx := context.Background()
				var cancel context.CancelFunc
				if opts.DeadlineEvery > 0 && (s*perSubmitter+i)%opts.DeadlineEvery == 0 {
					ctx, cancel = context.WithTimeout(ctx, opts.Deadline)
				}
				ch := submitWithRetry(rt, ctx, q, opts, rng, &rejected, &retries)
				if ch == nil {
					gaveUp.Add(1)
					if cancel != nil {
						cancel()
					}
					continue
				}
				accepted.Add(1)
				resp, ok := <-ch
				if !ok {
					fail(fmt.Errorf("chaos: response channel closed without a response"))
				} else {
					switch {
					case resp.Err == nil:
						completed.Add(1)
					case errors.Is(resp.Err, context.DeadlineExceeded) || errors.Is(resp.Err, context.Canceled):
						timedOut.Add(1)
					default:
						completed.Add(1)
						failed.Add(1)
					}
					// Exactly-once: a second response must never appear.
					select {
					case extra, ok := <-ch:
						if ok {
							fail(fmt.Errorf("chaos: double response for one query: %+v", extra))
						}
					default:
					}
				}
				if cancel != nil {
					cancel()
				}
			}
		}(s)
	}
	wg.Wait()
	close(sampleStop)
	sampleWg.Wait()

	rep.Accepted = accepted.Load()
	rep.RejectedAttempts = rejected.Load()
	rep.GaveUp = gaveUp.Load()
	rep.Retries = retries.Load()
	rep.Completed = completed.Load()
	rep.Failed = failed.Load()
	rep.TimedOut = timedOut.Load()
	rep.MaxQueued = int(maxQueued.Load())
	rep.MaxInFlight = int(maxInFlight.Load())
	violationMu.Lock()
	defer violationMu.Unlock()
	return rep, violation
}

// submitWithRetry is the client side of the backpressure contract:
// jittered exponential backoff on rejection, never shorter than the
// server's retry-after hint. Returns nil after MaxRetries rejections.
func submitWithRetry(rt *live.Runtime, ctx context.Context, q traverse.Query, opts Options, rng *xrand.RNG, rejected, retries *atomic.Int64) <-chan live.Response {
	for attempt := 0; ; attempt++ {
		ch, err := rt.SubmitCtx(ctx, q)
		if err == nil {
			return ch
		}
		var rej *live.RejectedError
		if !errors.As(err, &rej) {
			// Closed or invalid — not part of the stress contract.
			return nil
		}
		rejected.Add(1)
		if attempt >= opts.MaxRetries {
			return nil
		}
		retries.Add(1)
		ceil := opts.RetryBase << uint(attempt)
		if ceil > 50*time.Millisecond {
			ceil = 50 * time.Millisecond
		}
		delay := time.Duration(rng.Float64() * float64(ceil))
		if delay < rej.RetryAfter {
			delay = rej.RetryAfter
		}
		time.Sleep(delay)
	}
}

// verify cross-checks the submitters' view against the runtime's
// counters and the configured bounds.
func verify(rt *live.Runtime, rep *Report, cfg live.Config, opts Options) error {
	m := rep.Metrics
	if !m.Conserved() {
		return fmt.Errorf("chaos: conservation violated: %v", m)
	}
	if got := rt.InFlight(); got != 0 {
		return fmt.Errorf("chaos: %d queries still in flight after drain", got)
	}
	if m.Submitted != rep.Accepted+rep.RejectedAttempts {
		return fmt.Errorf("chaos: runtime saw %d submissions, submitters made %d accepted + %d rejected",
			m.Submitted, rep.Accepted, rep.RejectedAttempts)
	}
	if m.Rejected != rep.RejectedAttempts {
		return fmt.Errorf("chaos: runtime counted %d rejections, submitters saw %d", m.Rejected, rep.RejectedAttempts)
	}
	if m.Completed != rep.Completed {
		return fmt.Errorf("chaos: runtime counted %d completions, submitters received %d", m.Completed, rep.Completed)
	}
	if m.TimedOut != rep.TimedOut {
		return fmt.Errorf("chaos: runtime counted %d timeouts, submitters received %d", m.TimedOut, rep.TimedOut)
	}
	if m.Failed != rep.Failed {
		return fmt.Errorf("chaos: runtime counted %d failures, submitters received %d", m.Failed, rep.Failed)
	}
	if qcap := cfg.QueueCap; qcap > 0 && rep.MaxQueued > qcap+cfg.NumUnits-1 {
		return fmt.Errorf("chaos: observed queue depth %d > QueueCap %d + NumUnits %d − 1", rep.MaxQueued, qcap, cfg.NumUnits)
	}
	if mp := cfg.MaxPending; mp > 0 && rep.MaxInFlight > mp {
		return fmt.Errorf("chaos: observed in-flight %d > MaxPending %d", rep.MaxInFlight, mp)
	}
	return nil
}
