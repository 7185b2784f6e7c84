package fifo

import (
	"slices"
	"testing"

	"subtrav/internal/xrand"
)

// TestQueueMatchesSlidingSlice drives a seeded operation stream through
// the queue and through the idiom it replaces — a slice popped by
// re-slicing — and compares every value that comes out.
func TestQueueMatchesSlidingSlice(t *testing.T) {
	rng := xrand.New(0xF1F0)
	var (
		q    Queue[int]
		ref  []int
		next int
	)
	for op := 0; op < 100_000; op++ {
		if q.Len() != len(ref) {
			t.Fatalf("op %d: Len %d, reference %d", op, q.Len(), len(ref))
		}
		switch k := rng.Intn(10); {
		case k < 5:
			q.Push(next)
			ref = append(ref, next)
			next++
		case k < 8 && len(ref) > 0:
			if got := q.Front(); got != ref[0] {
				t.Fatalf("op %d: Front %d, reference %d", op, got, ref[0])
			}
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("op %d: Pop %d, reference %d", op, got, ref[0])
			}
			ref = ref[1:]
		case k == 8:
			n := rng.Intn(len(ref) + 1)
			if got := q.PopN(n); !slices.Equal(got, ref[:n]) {
				t.Fatalf("op %d: PopN(%d) %v, reference %v", op, n, got, ref[:n])
			}
			ref = ref[n:]
		case rng.Intn(50) == 0:
			q.Reset()
			ref = nil
		}
	}
}

// TestQueueReleasesWhatItPopped: a popped element must not stay
// reachable from the queue's storage — at once for Pop, and no later
// than the compaction a dead prefix as long as the live queue triggers
// for PopN, whose result the caller is still reading.
func TestQueueReleasesWhatItPopped(t *testing.T) {
	var q Queue[*int]
	held := func() int {
		n := 0
		for _, p := range q.items[:cap(q.items)] {
			if p != nil {
				n++
			}
		}
		return n
	}
	for i := 0; i < 8; i++ {
		q.Push(new(int))
	}
	q.Pop()
	if got := held(); got != 7 {
		t.Errorf("after Pop: storage holds %d pointers, want 7", got)
	}
	q.PopN(5) // the dead prefix (6) now outweighs the live queue (2)
	q.Push(new(int))
	if got := held(); got != 3 {
		t.Errorf("after compaction: storage holds %d pointers, want 3", got)
	}
	q.Reset()
	if got := held(); got != 0 || q.Len() != 0 {
		t.Errorf("after Reset: Len %d, storage holds %d pointers", q.Len(), got)
	}
}

// TestQueueSteadyStateAllocatesNothing: a queue whose length stays
// bounded stops allocating, however many elements pass through it. The
// sliding slice reallocates once per capacity's worth.
func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 16; i++ {
		q.Push(i)
	}
	for i := 0; i < 64; i++ { // reach the capacity the bound implies
		q.Push(q.Pop())
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		q.Push(q.Pop())
		q.Push(q.Pop())
		q.Push(q.Pop())
	}); allocs != 0 {
		t.Errorf("bounded queue in steady state: %v allocs, want 0", allocs)
	}
}
