package sim

import (
	"container/heap"
	"testing"

	"subtrav/internal/xrand"
)

// refHeap is the event queue as it was before the typed heap: the same
// (time, seq) order under container/heap, which boxes every event into
// an interface on Push and again on Pop. Kept as the oracle.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestEventHeapMatchesContainerHeap drives one seeded stream of
// interleaved pushes and pops through both heaps. Timestamps come from
// a window a few ticks wide that creeps forward, as the simulator's do
// (an event is scheduled at or after now), so most comparisons are
// decided by seq.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	const ops = 200_000
	rng := xrand.New(0xE7E47)
	var (
		h    eventHeap
		ref  refHeap
		seq  int64
		now  int64
		pops int
	)
	jobs := make([]Job, 16)
	pop := func() {
		got, want := h.pop(), heap.Pop(&ref).(event)
		if got != want {
			t.Fatalf("pop %d: typed heap gave %+v, container/heap %+v", pops, got, want)
		}
		now = got.time
		pops++
	}
	for i := 0; i < ops; i++ {
		if len(h) != len(ref) {
			t.Fatalf("op %d: lengths %d and %d", i, len(h), len(ref))
		}
		if len(h) > 0 && rng.Intn(100) < 45 {
			pop()
			continue
		}
		e := event{
			time: now + int64(rng.Intn(4)),
			seq:  seq,
			kind: eventKind(rng.Intn(2)),
			unit: int32(rng.Intn(8)),
			job:  &jobs[rng.Intn(len(jobs))],
		}
		seq++
		h.push(e)
		heap.Push(&ref, e)
	}
	for len(h) > 0 {
		pop()
	}
	if len(ref) != 0 {
		t.Fatalf("container/heap still holds %d events", len(ref))
	}
	if pops < ops/2 {
		t.Fatalf("only %d pops in %d operations", pops, ops)
	}
}

// TestEventHeapPopDropsTheTask pins that a popped slot keeps no pointer
// to its job: the backing array outlives the run (Reset keeps it).
func TestEventHeapPopDropsTheTask(t *testing.T) {
	var h eventHeap
	j := new(Job)
	for i := int64(0); i < 5; i++ {
		h.push(event{time: 5 - i, seq: i, job: j})
	}
	for len(h) > 0 {
		h.pop()
	}
	for i, e := range h[:cap(h)] {
		if e.job != nil {
			t.Errorf("slot %d still points at its job", i)
		}
	}
}

func TestEventHeapSteadyStateAllocatesNothing(t *testing.T) {
	var h eventHeap
	j := new(Job)
	var seq int64
	push := func(at int64) {
		h.push(event{time: at, seq: seq, job: j})
		seq++
	}
	for i := int64(0); i < 1024; i++ {
		push(i % 7)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e := h.pop()
		push(e.time + 3)
	})
	if allocs != 0 {
		t.Errorf("pop + push at steady capacity: %v allocs, want 0", allocs)
	}
}
