// Package storage models the shared disk of the paper's target
// architecture (Figure 1): a single store holding the whole property
// graph, accessed by every processing unit. Requests are served by a
// fixed number of channels; when more units issue concurrent fetches
// than there are channels, requests queue and effective latency grows.
// This contention is what makes the speedup of Figure 10 sublinear and
// what data-locality scheduling (fewer disk fetches) alleviates.
//
// All times are virtual nanoseconds; the discrete-event simulator
// drives the clock.
package storage

import (
	"fmt"
	"math"
	"math/bits"
)

// DiskConfig parameterizes the shared-disk service model.
type DiskConfig struct {
	// SeekNanos is the fixed per-request positioning latency.
	SeekNanos int64
	// BytesPerSecond is the sequential transfer bandwidth of one
	// channel.
	BytesPerSecond int64
	// Channels is the number of requests the disk can serve in
	// parallel (an enterprise array has several; a single spindle has
	// one). Values < 1 are treated as 1.
	Channels int
	// PartitionLocality scales the seek cost of a read that hits the
	// same graph partition as the channel's previous read — records of
	// one partition are laid out contiguously, so runs of
	// same-partition reads behave sequentially. 1 (or 0, the zero
	// value) disables the effect; 0.25 means same-partition seeks cost
	// a quarter. Reads with partition < 0 always pay the full seek.
	PartitionLocality float64
}

// DefaultDiskConfig returns a shared-disk model in the spirit of the
// paper's platform: millisecond-class positioning, array-level
// bandwidth, modest parallelism.
func DefaultDiskConfig() DiskConfig {
	return DiskConfig{
		SeekNanos:      2_000_000,   // 2 ms per request
		BytesPerSecond: 400_000_000, // 400 MB/s per channel
		Channels:       4,
	}
}

// Validate checks the configuration.
func (c DiskConfig) Validate() error {
	if c.SeekNanos < 0 {
		return fmt.Errorf("storage: SeekNanos = %d, want >= 0", c.SeekNanos)
	}
	if c.BytesPerSecond <= 0 {
		return fmt.Errorf("storage: BytesPerSecond = %d, want > 0", c.BytesPerSecond)
	}
	if c.PartitionLocality < 0 || c.PartitionLocality > 1 {
		return fmt.Errorf("storage: PartitionLocality = %g, want [0,1]", c.PartitionLocality)
	}
	return nil
}

// TransferNanos returns the time to move `bytes` at `bytesPerSecond`,
// in nanoseconds, saturating at math.MaxInt64. The naive formula
// bytes*1e9/bytesPerSecond overflows int64 once bytes exceeds ~9.2 GB
// (bytes*1e9 > 2^63-1) and yields negative service times; this is the
// single overflow-safe implementation shared by the virtual disk model
// and the live runtime's scaled sleeps. Non-positive bytes cost
// nothing; a non-positive rate is treated as infinitely slow only in
// the degenerate sense that callers validate it away — we return 0 to
// stay total.
func TransferNanos(bytes, bytesPerSecond int64) int64 {
	if bytes <= 0 || bytesPerSecond <= 0 {
		return 0
	}
	// Full 128-bit product bytes*1e9, then one 128/64 division.
	hi, lo := bits.Mul64(uint64(bytes), 1_000_000_000)
	bps := uint64(bytesPerSecond)
	if hi >= bps {
		// Quotient would not fit in 64 bits (bits.Div64 panics).
		return math.MaxInt64
	}
	q, _ := bits.Div64(hi, lo, bps)
	if q > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(q)
}

// Stats aggregates disk activity.
type Stats struct {
	Requests  int64
	BytesRead int64
	// BusyNanos is the total channel-time spent servicing requests.
	BusyNanos int64
	// QueueNanos is the total time requests waited for a free channel;
	// the direct measure of disk contention.
	QueueNanos int64
	// LocalSeeks counts reads that paid the reduced same-partition
	// seek (see DiskConfig.PartitionLocality).
	LocalSeeks int64
}

// MeanQueueNanos returns the average queueing delay per request.
func (s Stats) MeanQueueNanos() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.QueueNanos) / float64(s.Requests)
}

// Disk is the shared-disk service-queue model. It is not safe for
// concurrent use; the discrete-event simulator serializes access in
// virtual-time order.
type Disk struct {
	cfg DiskConfig
	// freeAt[i] is the virtual time at which channel i becomes idle.
	freeAt []int64
	// lastPart[i] is the graph partition channel i last read from
	// (-1: none).
	lastPart []int32
	stats    Stats
}

// NewDisk creates a disk; panics on invalid configuration (programmer
// error — configurations are validated at experiment setup).
func NewDisk(cfg DiskConfig) *Disk {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ch := cfg.Channels
	if ch < 1 {
		ch = 1
	}
	d := &Disk{cfg: cfg, freeAt: make([]int64, ch), lastPart: make([]int32, ch)}
	for i := range d.lastPart {
		d.lastPart[i] = -1
	}
	return d
}

// Config returns the disk configuration.
func (d *Disk) Config() DiskConfig { return d.cfg }

// Stats returns a copy of the activity counters.
func (d *Disk) Stats() Stats { return d.stats }

// TransferNanos returns the raw (uncontended) service time for a read
// of the given size: seek plus transfer.
func (d *Disk) TransferNanos(bytes int64) int64 {
	return d.cfg.SeekNanos + TransferNanos(bytes, d.cfg.BytesPerSecond)
}

// Read services a read of `bytes` issued at virtual time `now` and
// returns the completion time. The request is placed on the channel
// that frees earliest; if all channels are busy the request queues.
// It is equivalent to ReadPart with no partition affinity.
func (d *Disk) Read(now, bytes int64) (done int64) {
	return d.ReadPart(now, bytes, -1)
}

// ReadPart is Read with the record's graph partition: when
// PartitionLocality is configured and the chosen channel's previous
// read came from the same partition, the seek cost shrinks
// accordingly.
func (d *Disk) ReadPart(now, bytes int64, partition int32) (done int64) {
	best := 0
	for i := 1; i < len(d.freeAt); i++ {
		if d.freeAt[i] < d.freeAt[best] {
			best = i
		}
	}
	start := now
	if d.freeAt[best] > start {
		start = d.freeAt[best]
	}
	if bytes < 0 {
		bytes = 0
	}
	seek := d.cfg.SeekNanos
	if d.cfg.PartitionLocality > 0 && d.cfg.PartitionLocality < 1 &&
		partition >= 0 && d.lastPart[best] == partition {
		seek = int64(float64(seek) * d.cfg.PartitionLocality)
		d.stats.LocalSeeks++
	}
	service := seek + TransferNanos(bytes, d.cfg.BytesPerSecond)
	done = start + service

	d.freeAt[best] = done
	d.lastPart[best] = partition
	d.stats.Requests++
	d.stats.BytesRead += bytes
	d.stats.BusyNanos += service
	d.stats.QueueNanos += start - now
	return done
}

// Reset clears channel occupancy and statistics, reusing the
// configuration (used between experiment repetitions).
func (d *Disk) Reset() {
	for i := range d.freeAt {
		d.freeAt[i] = 0
		d.lastPart[i] = -1
	}
	d.stats = Stats{}
}
