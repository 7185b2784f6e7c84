// Package sendunderlock hands a finished query to its waiter while
// holding the runtime lock: a waiter that is slow to receive stalls
// every unit that needs the lock.
package sendunderlock

import "sync"

type response struct{ id uint64 }

type runtime struct {
	mu       sync.Mutex
	inFlight int
}

func (r *runtime) finish(done chan<- response, id uint64) {
	r.mu.Lock()
	r.inFlight--
	done <- response{id: id}
	r.mu.Unlock()
}
