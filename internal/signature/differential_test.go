package signature

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"subtrav/internal/graph"
	"subtrav/internal/xrand"
)

// The flat Table against refTable, the map-of-slices table it replaced:
// one op stream drives both and every answer is compared after every
// op. The stream is decoded from bytes so that the seeded property test
// below and FuzzTableOps share one decoder.

// opBytes hands out a byte string one byte at a time, zeros once it is
// spent.
type opBytes struct {
	data []byte
	pos  int
}

func (b *opBytes) more() bool { return b.pos < len(b.data) }

func (b *opBytes) next() int {
	if !b.more() {
		return 0
	}
	b.pos++
	return int(b.data[b.pos-1])
}

// farStride spreads the "far" vertices of an op stream over every
// stripe, up to ≈ 130 k: far beyond whatever the 64 near vertices have
// grown a stripe to.
const farStride = 509

// vertex decodes one vertex: mostly one of 64 near ones (one per
// stripe, so rows fill up and go stale), sometimes a far one.
func (b *opBytes) vertex() graph.VertexID {
	x := b.next()
	if x < 192 {
		return graph.VertexID(x % 64)
	}
	return graph.VertexID((x-192)*256+b.next()) * farStride / 64
}

// checkVertex compares everything the two tables can say about v.
func checkVertex(t testing.TB, flat *Table, ref *refTable, v graph.VertexID) {
	t.Helper()
	got, want := flat.Visitors(v), ref.Visitors(v)
	if !slices.Equal(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("Visitors(%d) = %v, reference %v", v, got, want)
	}
	for proc := int32(-1); proc < 10; proc++ {
		gt, gok := flat.LatestByProc(v, proc)
		wt, wok := ref.LatestByProc(v, proc)
		if gt != wt || gok != wok {
			t.Fatalf("LatestByProc(%d, %d) = %d,%t, reference %d,%t", v, proc, gt, gok, wt, wok)
		}
	}
	// Widths 0 and 3 leave recorded procs out of range; 9 covers all.
	for _, width := range []int{0, 3, 9} {
		g, w := make([]int64, width), make([]int64, width)
		gany, wany := flat.LatestAll(v, g), ref.LatestAll(v, w)
		if gany != wany || !slices.Equal(g, w) {
			t.Fatalf("LatestAll(%d, width %d) = %v,%t, reference %v,%t", v, width, g, gany, w, wany)
		}
	}
}

// runTableOps decodes data into Record, RecordTrace and Reset calls,
// applies each to a flat table and to the reference (RecordTrace as the
// Record loop it stands for), and compares after every op; at the end
// it compares every vertex the stream touched and some it did not.
func runTableOps(t testing.TB, data []byte) {
	t.Helper()
	b := &opBytes{data: data}
	capacity := b.next() % 21 // 0 is DefaultCapacity; the L(v) sweep runs 1–20
	flat, ref := NewTable(capacity), newRefTable(capacity)
	if flat.Capacity() != ref.capacity {
		t.Fatalf("capacity %d, reference %d", flat.Capacity(), ref.capacity)
	}
	seen := map[graph.VertexID]bool{}
	var clock int64
	// stamp is a timestamp in a window around a slowly advancing clock:
	// out of order, duplicated, and now and then older than a full row.
	stamp := func() int64 {
		clock++
		return clock/2 + int64(b.next()%48)
	}
	for b.more() {
		switch op := b.next(); {
		case op < 200:
			v, proc, now := b.vertex(), int32(b.next()%9), stamp()
			flat.Record(v, proc, now)
			ref.Record(v, proc, now)
			seen[v] = true
			checkVertex(t, flat, ref, v)
		case op < 250:
			// A trace of a base vertex and strides off it, duplicates
			// included: short (the Record loop) or long (bucketed).
			n := b.next() % 24
			if op >= 225 {
				n += bucketMin
			}
			base, stride := b.vertex(), graph.VertexID(b.next()%7)
			trace := make([]graph.VertexID, n)
			for i := range trace {
				trace[i] = base + graph.VertexID(i%(1+b.next()%16))*stride
			}
			proc, now := int32(b.next()%9), stamp()
			flat.RecordTrace(trace, proc, now)
			for _, v := range trace {
				ref.Record(v, proc, now)
				seen[v] = true
			}
			// Every vertex of a short trace, a sample of a long one; the
			// pass at the end covers the rest.
			for i := 0; i < n; i += 1 + n/16 {
				checkVertex(t, flat, ref, trace[i])
			}
		default:
			flat.Reset()
			ref.Reset()
		}
		if flat.Len() != ref.Len() {
			t.Fatalf("Len = %d, reference %d", flat.Len(), ref.Len())
		}
	}
	for v := range seen {
		checkVertex(t, flat, ref, v)
		checkVertex(t, flat, ref, v+1)
	}
	checkVertex(t, flat, ref, 1<<30)
	checkVertex(t, flat, ref, -1)
}

func TestFlatTableMatchesReference(t *testing.T) {
	rng := xrand.New(0x51674AB1E)
	for round := 0; round < 60; round++ {
		data := make([]byte, 200+rng.Intn(3000))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		// Every fourth stream stays on a handful of vertices, so rows
		// fill, shift and drop stale records.
		if round%4 == 0 {
			for i := range data {
				data[i] %= 16
			}
			data[0] = byte(1 + round%5)
		}
		runTableOps(t, data)
	}
}

// RecordTrace is the Record loop, on both of its paths and whatever the
// stripes have grown to; so is Flush, fed the same vertices as visits
// that each carry their own proc and time, some out of order.
func TestRecordTraceMatchesRecordLoop(t *testing.T) {
	rng := xrand.New(0x7ACE)
	for _, n := range []int{0, 1, bucketMin - 1, bucketMin, bucketMin + 1, 1000, 5000} {
		traced, looped, ref := NewTable(4), NewTable(4), newRefTable(4)
		flushed, mixed := NewTable(4), NewTable(4)
		var log Log
		trace := make([]graph.VertexID, n)
		for completion := 0; completion < 12; completion++ {
			// Each completion reaches further out than the last, and a
			// third of its vertices repeat an earlier one of the trace.
			span := 50 << completion
			for i := range trace {
				if i > 0 && rng.Intn(3) == 0 {
					trace[i] = trace[rng.Intn(i)]
				} else {
					trace[i] = graph.VertexID(rng.Intn(span))
				}
			}
			proc, now := int32(completion%5), int64(100-completion%3)
			before := traced.LockAcquisitions()
			traced.RecordTrace(trace, proc, now)
			locks := traced.LockAcquisitions() - before
			if n >= bucketMin && locks > numStripes {
				t.Fatalf("n=%d: RecordTrace took %d locks, want at most one per stripe", n, locks)
			}
			for _, v := range trace {
				looped.Record(v, proc, now)
				ref.Record(v, proc, now)
			}
			// The same vertices as visits of mixed procs and times: a
			// clock that mostly advances and now and then steps back.
			for i, v := range trace {
				vproc, vnow := int32(rng.Intn(6)), int64(200*completion+i/4-rng.Intn(8))
				log.Add(v, vproc, vnow)
				mixed.Record(v, vproc, vnow)
			}
			if log.Len() != n {
				t.Fatalf("n=%d: log holds %d visits", n, log.Len())
			}
			before = flushed.LockAcquisitions()
			flushed.Flush(&log)
			if locks := flushed.LockAcquisitions() - before; n >= bucketMin && locks > numStripes {
				t.Fatalf("n=%d: Flush took %d locks, want at most one per stripe", n, locks)
			}
			if log.Len() != 0 {
				t.Fatalf("n=%d: Flush left %d visits in the log", n, log.Len())
			}
			for _, v := range trace {
				if got, want := traced.Visitors(v), looped.Visitors(v); !slices.Equal(got, want) {
					t.Fatalf("n=%d completion %d: L(%d) = %v traced, %v looped", n, completion, v, got, want)
				}
				if got, want := flushed.Visitors(v), mixed.Visitors(v); !slices.Equal(got, want) {
					t.Fatalf("n=%d completion %d: L(%d) = %v flushed, %v looped", n, completion, v, got, want)
				}
				checkVertex(t, traced, ref, v)
			}
			if traced.Len() != looped.Len() || traced.Len() != ref.Len() || flushed.Len() != mixed.Len() {
				t.Fatalf("n=%d: Len = %d traced, %d looped, %d reference, %d flushed, %d mixed looped",
					n, traced.Len(), looped.Len(), ref.Len(), flushed.Len(), mixed.Len())
			}
		}
	}
}

// Writers refuse a negative vertex before taking a lock; readers see
// it as never visited.
func TestNegativeVertexPanics(t *testing.T) {
	tbl := NewTable(0)
	long := make([]graph.VertexID, bucketMin)
	long[bucketMin/2] = -7
	for name, write := range map[string]func(){
		"Record":               func() { tbl.Record(-1, 0, 1) },
		"RecordTrace/short":    func() { tbl.RecordTrace([]graph.VertexID{3, -2}, 0, 1) },
		"RecordTrace/bucketed": func() { tbl.RecordTrace(long, 0, 1) },
		"Flush/bucketed": func() {
			var log Log
			for _, v := range long {
				log.Add(v, 1, 2)
			}
			tbl.Flush(&log)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a negative vertex did not panic", name)
				}
			}()
			write()
		}()
	}
	if tbl.VisitedBy(-1, 0) || tbl.Visitors(-7) != nil {
		t.Error("a negative vertex reads as visited")
	}
	// No lock was left held: every stripe still takes a record.
	for v := graph.VertexID(0); v < numStripes; v++ {
		tbl.Record(v, 0, 2)
	}
	if tbl.Len() != numStripes {
		t.Errorf("Len = %d after the refused writes, want %d", tbl.Len(), numStripes)
	}
}

// Four RecordTrace writers grow every stripe several times over while a
// reader snapshots the same vertices: meaningful under -race, and the
// final table is checked either way.
func TestConcurrentRecordTraceThroughGrowth(t *testing.T) {
	const (
		writers = 4
		rounds  = 9
		traceN  = 3 * bucketMin
	)
	tbl := NewTable(writers)
	var (
		wg   sync.WaitGroup
		done atomic.Bool
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(proc int32) {
			defer wg.Done()
			trace := make([]graph.VertexID, traceN)
			for r := 0; r < rounds; r++ {
				// Round r records multiples of 2^r+1 — odd, so every
				// stripe gets its share — and reaches twice as far as
				// the round before: beyond the grown range.
				stride := 1<<r + 1
				for i := range trace {
					trace[i] = graph.VertexID(i * stride)
				}
				tbl.RecordTrace(trace, proc, int64(r+1))
			}
		}(int32(w))
	}
	var reads, visited int
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		out := make([]int64, writers)
		rng := xrand.New(9)
		for !done.Load() {
			// A vertex some round records, sooner or later.
			v := graph.VertexID(rng.Intn(traceN) * (1<<rng.Intn(rounds) + 1))
			reads++
			if !tbl.LatestAll(v, out) {
				continue
			}
			visited++
			for p, ts := range out {
				if ts != NoVisit && (ts < 1 || ts > rounds) {
					t.Errorf("LatestAll(%d)[%d] = %d, not a time any writer recorded", v, p, ts)
					return
				}
			}
		}
	}()
	wg.Wait()
	done.Store(true)
	<-readerDone
	t.Logf("reader: %d snapshots, %d of visited vertices", reads, visited)

	// Vertex 0 is in every trace of every writer; the last vertex of the
	// last round in exactly one trace per writer.
	if got := tbl.Visitors(0); len(got) != writers || got[0].Time != rounds {
		t.Errorf("L(0) = %v, want the %d records of the last round", got, writers)
	}
	last := graph.VertexID((traceN - 1) * (1<<(rounds-1) + 1))
	if got := tbl.Visitors(last); len(got) != writers {
		t.Errorf("L(%d) = %v, want one record per writer", last, got)
	}
	if tbl.Visitors(last+1) != nil {
		t.Errorf("L(%d) is not empty", last+1)
	}
}

// Steady state allocates nothing: once the stripes cover the vertices
// and the scratch pool is warm, neither a Record nor a bucketed
// RecordTrace reaches the allocator. Not parallel: AllocsPerRun counts
// process-wide mallocs.
func TestRecordAllocatesNothing(t *testing.T) {
	tbl := NewTable(0)
	trace := make([]graph.VertexID, 4*bucketMin)
	for i := range trace {
		trace[i] = graph.VertexID(i * 37 % 5000)
	}
	var now int64
	record := func() {
		now++
		tbl.Record(graph.VertexID(now%5000), 1, now)
	}
	recordTrace := func() {
		now++
		tbl.RecordTrace(trace, 2, now)
	}
	for v := graph.VertexID(0); v < 5000; v++ {
		tbl.Record(v, 0, 0)
	}
	recordTrace()
	if got := testing.AllocsPerRun(100, record); got != 0 {
		t.Errorf("Record: %.1f allocs/op, want 0", got)
	}
	if raceDetector {
		// Under the race detector sync.Pool drops a quarter of what is
		// put into it, so the scratch is reallocated now and then.
		return
	}
	if got := testing.AllocsPerRun(100, recordTrace); got != 0 {
		t.Errorf("RecordTrace: %.1f allocs/op, want 0", got)
	}
}

// BenchmarkSignTrace signs completions of uniformly drawn vertices —
// the sizes of the benchmark's two service workloads — three ways: the
// reference map table and the flat table one Record at a time, and
// RecordTrace. ns/vertex is the figure EXPERIMENTS.md quotes. The
// in-order clock stamps completion i with i, as the simulator does; the
// racing one stamps it up to 63 completions early, as live units racing
// the wall clock do, so a record often lands behind a row's newest
// entries and walks back through the ring.
func BenchmarkSignTrace(b *testing.B) {
	rng := xrand.New(2)
	lag := make([]int64, 1000)
	for i := range lag {
		lag[i] = int64(rng.Intn(64))
	}
	for _, size := range []struct{ touched, vertices int }{{360, 20_000}, {4000, 100_000}} {
		rng := xrand.New(1)
		traces := make([][]graph.VertexID, 64)
		for i := range traces {
			traces[i] = make([]graph.VertexID, size.touched)
			for j := range traces[i] {
				traces[i][j] = graph.VertexID(rng.Intn(size.vertices))
			}
		}
		for _, clock := range []struct {
			name  string
			stamp func(i int) int64
		}{
			{"", func(i int) int64 { return int64(i) }},
			{"-racing", func(i int) int64 { return int64(i) - lag[i%len(lag)] }},
		} {
			ref, looped, traced := newRefTable(0), NewTable(0), NewTable(0)
			for _, side := range []struct {
				name string
				sign func([]graph.VertexID, int32, int64)
			}{
				{"map", func(trace []graph.VertexID, proc int32, now int64) {
					for _, v := range trace {
						ref.Record(v, proc, now)
					}
				}},
				{"flat", func(trace []graph.VertexID, proc int32, now int64) {
					for _, v := range trace {
						looped.Record(v, proc, now)
					}
				}},
				{"trace", traced.RecordTrace},
			} {
				sign, stamp := side.sign, clock.stamp
				b.Run(fmt.Sprintf("%s%s/%dof%d", side.name, clock.name, size.touched, size.vertices), func(b *testing.B) {
					for i := 0; i < 4*len(traces); i++ { // fill the rows first
						sign(traces[i%len(traces)], int32(i%4), stamp(i))
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						sign(traces[i%len(traces)], int32(i%4), stamp(i))
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size.touched), "ns/vertex")
				})
			}
		}
	}
}
