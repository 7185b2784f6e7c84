// Command subtrav-service runs the concurrent subgraph traversal
// system as a TCP query service: the live goroutine runtime (one
// worker per processing unit, auction-based scheduling) behind the
// length-prefixed binary frames of internal/service.
//
// Usage:
//
//	subtrav-service -addr 127.0.0.1:7070 -units 8 -mem 64
//	subtrav-service -graph twitter.csr -units 16
//	subtrav-service -graph twitter.csr -mmap    # serve the snapshot in place
//	subtrav-service -debug-addr 127.0.0.1:6060   # /metrics, /healthz, pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"subtrav"
	"subtrav/internal/affinity"
	"subtrav/internal/graph"
	"subtrav/internal/graphio"
	"subtrav/internal/live"
	"subtrav/internal/obs"
	"subtrav/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "listen address")
		units     = flag.Int("units", 8, "processing units (worker goroutines)")
		memMB     = flag.Int64("mem", 64, "per-unit buffer budget in MiB (0 = unlimited)")
		graphFile = flag.String("graph", "", "graph snapshot to serve, as graphgen writes it (default: generated power-law)")
		useMmap   = flag.Bool("mmap", false, "serve the -graph snapshot out of a read-only memory map instead of loading it on the heap")
		scale     = flag.String("scale", "small", "generated graph scale when -graph is not given: tiny, small, medium")
		seed      = flag.Uint64("seed", 42, "seed for the generated graph")
		epsilon   = flag.Float64("epsilon", 1e-3, "auction minimum price increment")
		timeScale = flag.Float64("timescale", 1e-3, "virtual-cost to wall-time scale for simulated I/O")

		maxPending   = flag.Int("max-pending", 0, "admission bound on in-flight queries (0 = 2·units·queue-cap); excess is rejected with a retry-after hint")
		tenantShare  = flag.Float64("tenant-share", 0, "per-tenant fraction of -max-pending a single tenant may hold in flight, in (0,1); 0 disables per-tenant caps")
		deadline     = flag.Duration("deadline", 0, "default per-query deadline for queries without one (0 = none)")
		schedTimeout = flag.Duration("sched-timeout", 0, "per-round scheduling budget; repeated overruns degrade to least-loaded placement (0 = disabled)")

		debugAddr   = flag.String("debug-addr", "", "optional HTTP debug endpoint serving /metrics, /healthz and /debug/pprof (empty = disabled)")
		traceBuffer = flag.Int("trace-buffer", 4096, "per-query trace spans retained for KindTrace / subtrav-client -trace (0 = tracing off)")
	)
	flag.Parse()
	if *useMmap && *graphFile == "" {
		fatal(fmt.Errorf("-mmap needs -graph"))
	}

	var (
		g   *graph.Graph
		err error
	)
	if *graphFile != "" {
		if *useMmap {
			var m *graphio.MappedCSR
			if m, err = graphio.OpenCSRFile(*graphFile); err == nil {
				g = m.Graph
				defer m.Close()
			}
		} else {
			g, err = graphio.ReadGraphFile(*graphFile)
		}
	} else {
		var sc subtrav.Scale
		if sc, err = subtrav.ParseScale(*scale); err == nil && sc > subtrav.ScaleMedium {
			err = fmt.Errorf("scale %q is too large to generate at startup: want tiny, small or medium", *scale)
		}
		if err == nil {
			g, err = subtrav.TwitterLike(sc, *seed)
		}
	}
	if err != nil {
		fatal(err)
	}

	rt, err := live.NewAuction(g, live.Config{
		NumUnits:        *units,
		MemoryPerUnit:   *memMB << 20,
		TimeScale:       *timeScale,
		MaxPending:      *maxPending,
		TenantShare:     *tenantShare,
		DefaultDeadline: *deadline,
		SchedTimeout:    *schedTimeout,
		TraceBuffer:     *traceBuffer,
	}, affinity.DefaultConfig(), *epsilon)
	if err != nil {
		fatal(err)
	}
	defer rt.Close()

	if *debugAddr != "" {
		dbg, err := obs.StartDebugServer(*debugAddr, rt.Registry(), nil)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Printf("subtrav-service: debug endpoint on http://%s (/metrics, /healthz, /debug/pprof)\n", dbg.Addr())
	}

	srv, err := service.NewServer(rt)
	if err != nil {
		fatal(err)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("subtrav-service: %d vertices, %d edges, %d units, listening on %s\n",
		g.NumVertices(), g.NumEdges(), *units, bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("subtrav-service: shutting down")
	srv.Close()
	fmt.Printf("subtrav-service: %v\n", rt.Metrics())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "subtrav-service:", err)
	os.Exit(1)
}
