// Package hotpathbox is the simulator's event queue before PR 23:
// container/heap boxes each 40-byte event into an interface on every
// push, one heap object per event.
package hotpathbox

import "container/heap"

type event struct {
	at, seq    int64
	kind, unit int32
	task       int64
}

type events []event

func (h events) Len() int           { return len(h) }
func (h events) Less(i, j int) bool { return h[i].at < h[j].at }
func (h events) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *events) Push(x any)        { *h = append(*h, x.(event)) }
func (h *events) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

//vet:hotpath
func (h *events) schedule(e event) {
	heap.Push(h, e)
}
