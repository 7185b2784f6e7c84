// Package allocfreetest exercises the allocfree analyzer: unmarked
// functions allocate freely, //vet:hotpath functions are held to the
// zero-allocation discipline, and the two reuse idioms (self-append,
// [:0] reslice) plus a documented //lint:allow pass clean.
package allocfreetest

import (
	"container/heap"
	"fmt"
	"strings"
	"unsafe"
)

type ws struct {
	buf []int
}

// cold carries no marker: every allocation here is legitimate.
func cold(n int) []int {
	out := make([]int, 0, n)
	return append(out, 1)
}

//vet:hotpath
func hotMake(n int) []int {
	return make([]int, n) // want "make creates a fresh backing store"
}

//vet:hotpath
func hotNew() *ws {
	return new(ws) // want "new heap-allocates"
}

//vet:hotpath
func hotLiteral() map[string]int {
	return map[string]int{} // want "composite literal"
}

//vet:hotpath
func hotPtrLiteral() *ws {
	return &ws{} // want "heap-allocates a fresh value"
}

//vet:hotpath
func hotAppend(xs, out []int) []int {
	tmp := append(xs, 1) // want "append without reuse evidence"
	out = append(out, tmp...)
	return out
}

//vet:hotpath
func hotReslice(w *ws, xs []int) {
	w.buf = append(w.buf[:0], xs...)
}

//vet:hotpath
func hotClosure(x int) func() int {
	return func() int { return x } // want "closure captures escape"
}

//vet:hotpath
func hotFmt(x int) {
	fmt.Println(x) // want "fmt.Println"
}

//vet:hotpath
func hotBuilder(b *strings.Builder, s string) {
	b.WriteString(s) // want "strings.Builder"
}

//vet:hotpath
func hotConv(s string) []byte {
	return []byte(s) // want "conversion copies"
}

//vet:hotpath
func hotAllowed(w *ws, n int) {
	if n > cap(w.buf) {
		//lint:allow allocfree fixture: doubling growth amortizes to O(1) per element
		w.buf = make([]int, n)
	}
}

// Boxing: the two shapes that hid in the simulator's event loop and the
// scheduler's round, then every other site a conversion to an interface
// can hide in, then everything that is excused.

type event struct {
	time, seq int64
}

type events []event

func (h events) Len() int           { return len(h) }
func (h events) Less(i, j int) bool { return h[i].time < h[j].time }
func (h events) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *events) Push(x any)        { *h = append(*h, x.(event)) }
func (h *events) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

//vet:hotpath
func hotHeapPush(h *events, e event) {
	heap.Push(h, e) // want "event is boxed into any"
}

type viewer interface{ QueueLen() int }

type view struct {
	base  viewer
	extra int
}

func (v view) QueueLen() int { return v.base.QueueLen() + v.extra }

//vet:hotpath
func hotViews(views []viewer, units []viewer, extra []int) {
	for i, u := range units {
		views[i] = view{base: u, extra: extra[i]} // want "view is boxed into .*viewer"
	}
}

//vet:hotpath
func hotViewPointers(views []viewer, retained []view, units []viewer, extra []int) {
	for i, u := range units {
		retained[i] = view{base: u, extra: extra[i]}
		views[i] = &retained[i]
	}
}

//vet:hotpath
func hotBoxReturn(v view) viewer {
	return v // want "view is boxed into .*viewer"
}

type holder struct {
	v   viewer
	tag any
}

//vet:hotpath
func hotBoxField(h *holder, v view, n int) {
	*h = holder{
		v:   v, // want "view is boxed into .*viewer"
		tag: n, // want "int is boxed into any"
	}
}

//vet:hotpath
func hotBoxConversion(n int64) any {
	var x any = n // want "int64 is boxed into any"
	_ = x
	return any(n) // want "int64 is boxed into any"
}

func sink(args ...any) {}

//vet:hotpath
func hotBoxVariadic(s string, f float64, args []any) {
	sink(s, // want "string is boxed into any"
		f) // want "float64 is boxed into any"
	sink(args...)
}

//vet:hotpath
func hotBoxExcused(h *holder, p *view, ch chan int, m map[int]int, fn func(), up unsafe.Pointer, v viewer, err error) any {
	sink(p, ch, m, fn, up) // one word each: stored in the interface itself
	sink(struct{}{}, [0]int{})
	sink(v, err)      // interface to interface: no new box
	sink(1, "x", nil) // constants live in read-only data
	h.v, h.tag = p, v
	return p
}

//vet:hotpath
func hotBoxGeneric[T any](dst []T, v T) {
	dst[0] = v // a type parameter is not an interface
}
