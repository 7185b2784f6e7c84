// Package atomicmix is the chaos harness's high-water mark with one
// access made plain: the sampler stores atomically, the report reads
// plainly while the sampler may still be running.
package atomicmix

import "sync/atomic"

type harness struct{ maxQueued int64 }

func (h *harness) sample(queued int64) {
	if queued > atomic.LoadInt64(&h.maxQueued) {
		atomic.StoreInt64(&h.maxQueued, queued)
	}
}

func (h *harness) report() int { return int(h.maxQueued) }
