// Package spinninggoroutine starts a sampler with no way out: it
// outlives Close and holds its captures until the process exits.
package spinninggoroutine

import "sync"

type runtime struct {
	wg      sync.WaitGroup
	samples int
}

func (r *runtime) startSampler() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			r.samples++
		}
	}()
}
