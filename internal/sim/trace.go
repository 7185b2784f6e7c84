package sim

import "subtrav/internal/obs"

// SetTrace makes every task append one obs.Span in virtual nanos to
// ring when it resolves — completed, rejected at admission or timed out
// — the record the live runtime writes, field for field (nil disables
// tracing). Call before Run.
func (c *Cluster) SetTrace(ring *obs.Ring) { c.trace = ring }
