package sim

// eventKind discriminates the simulator's event types.
type eventKind uint8

const (
	// evArrival delivers one task into the pending pool.
	evArrival eventKind = iota
	// evStep resumes a unit's in-progress trace replay (typically
	// right after a disk read completes).
	evStep
)

type event struct {
	time int64
	seq  int64 // FIFO tie-break for identical timestamps → determinism
	kind eventKind
	unit int32 // evStep
	job  *Job  // evArrival
}

// before is the event loop's total order: virtual time, then push
// order. seq is unique per push, so no two events compare equal and
// the pop sequence does not depend on how the heap arranges them.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events under before, typed so that
// an event is stored and returned by value: container/heap would box
// each one into an interface on the way in and again on the way out,
// two heap objects per event on the simulator's innermost loop.
type eventHeap []event

// push adds e, growing the backing array only past its high-water mark.
//
//vet:hotpath
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(&s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the earliest event; the heap must not be
// empty.
//
//vet:hotpath
func (h *eventHeap) pop() event {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = event{} // drop the job pointer with the slot
	s = s[:n]
	*h = s
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s[r].before(&s[child]) {
			child = r
		}
		if !s[child].before(&s[i]) {
			break
		}
		s[i], s[child] = s[child], s[i]
		i = child
	}
	return top
}
