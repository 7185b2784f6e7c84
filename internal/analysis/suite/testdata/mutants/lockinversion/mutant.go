// Package lockinversion takes the runtime lock then a signature
// stripe in one path, and the stripe then the runtime lock in
// another: two goroutines, one on each path, deadlock.
package lockinversion

import "sync"

type stripe struct {
	mu   sync.RWMutex
	rows []int64
}

type runtime struct {
	mu      sync.Mutex
	pending int
	stripe  *stripe
}

func (r *runtime) admit() {
	r.mu.Lock()
	r.stripe.mu.RLock()
	r.pending += len(r.stripe.rows)
	r.stripe.mu.RUnlock()
	r.mu.Unlock()
}

func (r *runtime) sign(now int64) {
	r.stripe.mu.Lock()
	r.mu.Lock()
	r.stripe.rows = append(r.stripe.rows, now+int64(r.pending))
	r.mu.Unlock()
	r.stripe.mu.Unlock()
}
