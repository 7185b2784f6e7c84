package storage

import (
	"math"
	"math/big"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"subtrav/internal/faultpoint"
	"subtrav/internal/obs"
)

func testConfig(channels int) DiskConfig {
	return DiskConfig{SeekNanos: 1000, BytesPerSecond: 1_000_000_000, Channels: channels}
}

func TestTransferNanos(t *testing.T) {
	d := NewDisk(testConfig(1))
	// 1 GB/s → 1 byte per ns; 500 bytes → 1000 (seek) + 500.
	if got := d.TransferNanos(500); got != 1500 {
		t.Errorf("TransferNanos(500) = %d, want 1500", got)
	}
	if got := d.TransferNanos(0); got != 1000 {
		t.Errorf("TransferNanos(0) = %d, want seek only 1000", got)
	}
	if got := d.TransferNanos(-5); got != 1000 {
		t.Errorf("TransferNanos(-5) = %d, want clamped to seek", got)
	}
}

func TestSingleChannelSerializes(t *testing.T) {
	d := NewDisk(testConfig(1))
	// Two simultaneous requests: the second must wait for the first.
	done1 := d.Read(0, 1000) // 1000 seek + 1000 transfer = 2000
	done2 := d.Read(0, 1000)
	if done1 != 2000 {
		t.Errorf("done1 = %d, want 2000", done1)
	}
	if done2 != 4000 {
		t.Errorf("done2 = %d, want 4000 (queued behind first)", done2)
	}
	if q := d.Stats().QueueNanos; q != 2000 {
		t.Errorf("QueueNanos = %d, want 2000", q)
	}
}

func TestMultiChannelParallelism(t *testing.T) {
	d := NewDisk(testConfig(2))
	done1 := d.Read(0, 1000)
	done2 := d.Read(0, 1000)
	done3 := d.Read(0, 1000)
	if done1 != 2000 || done2 != 2000 {
		t.Errorf("two channels should serve both at 2000, got %d %d", done1, done2)
	}
	if done3 != 4000 {
		t.Errorf("third request should queue: %d, want 4000", done3)
	}
}

func TestIdleDiskNoQueueing(t *testing.T) {
	d := NewDisk(testConfig(1))
	d.Read(0, 100)
	done := d.Read(10_000, 100) // long after the first completes
	if done != 10_000+1100 {
		t.Errorf("done = %d, want 11100", done)
	}
	if d.Stats().QueueNanos != 0 {
		t.Errorf("QueueNanos = %d, want 0 for spaced requests", d.Stats().QueueNanos)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := NewDisk(testConfig(1))
	d.Read(0, 100)
	d.Read(0, 200)
	st := d.Stats()
	if st.Requests != 2 || st.BytesRead != 300 {
		t.Errorf("stats = %+v", st)
	}
	if st.BusyNanos != 1100+1200 {
		t.Errorf("BusyNanos = %d, want 2300", st.BusyNanos)
	}
	if st.MeanQueueNanos() <= 0 {
		t.Errorf("MeanQueueNanos = %g, want > 0 (second request queued)", st.MeanQueueNanos())
	}
}

func TestReset(t *testing.T) {
	d := NewDisk(testConfig(1))
	d.Read(0, 100)
	d.Reset()
	if d.Stats().Requests != 0 {
		t.Error("stats survived reset")
	}
	if done := d.Read(0, 100); done != 1100 {
		t.Errorf("after reset, done = %d, want 1100 (no residual occupancy)", done)
	}
}

func TestValidate(t *testing.T) {
	if err := (DiskConfig{SeekNanos: -1, BytesPerSecond: 1}).Validate(); err == nil {
		t.Error("negative seek should fail validation")
	}
	if err := (DiskConfig{SeekNanos: 0, BytesPerSecond: 0}).Validate(); err == nil {
		t.Error("zero bandwidth should fail validation")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewDisk should panic on invalid config")
		}
	}()
	NewDisk(DiskConfig{})
}

func TestChannelsDefaultToOne(t *testing.T) {
	d := NewDisk(DiskConfig{SeekNanos: 1, BytesPerSecond: 1, Channels: 0})
	if len(d.freeAt) != 1 {
		t.Errorf("channels = %d, want 1", len(d.freeAt))
	}
}

// Property: completion times are monotone per channel count — a disk
// with more channels never finishes a request sequence later.
func TestMoreChannelsNeverSlowerQuick(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 40 {
			sizes = sizes[:40]
		}
		run := func(channels int) int64 {
			d := NewDisk(testConfig(channels))
			var last int64
			for _, s := range sizes {
				if done := d.Read(0, int64(s)); done > last {
					last = done
				}
			}
			return last
		}
		return run(4) <= run(1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: done >= now + uncontended service time, always.
func TestCompletionLowerBoundQuick(t *testing.T) {
	f := func(nowRaw uint32, bytes uint16) bool {
		d := NewDisk(testConfig(2))
		now := int64(nowRaw)
		done := d.Read(now, int64(bytes))
		return done >= now+d.TransferNanos(int64(bytes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionLocality(t *testing.T) {
	cfg := testConfig(1)
	cfg.PartitionLocality = 0.25
	d := NewDisk(cfg)
	// First read of partition 3: full seek (1000) + 100 transfer.
	d.Reset()
	done := d.ReadPart(0, 100, 3)
	if done != 1100 {
		t.Errorf("first read done = %d, want 1100 (full seek)", done)
	}
	// Same partition immediately after: quarter seek.
	done2 := d.ReadPart(done, 100, 3)
	if got := done2 - done; got != 250+100 {
		t.Errorf("local read service = %d, want 350", got)
	}
	// Different partition: full seek again.
	done3 := d.ReadPart(done2, 100, 7)
	if got := done3 - done2; got != 1100 {
		t.Errorf("cross-partition service = %d, want 1100", got)
	}
	// Unpartitioned records never get the discount.
	done4 := d.ReadPart(done3, 100, -1)
	done5 := d.ReadPart(done4, 100, -1)
	if got := done5 - done4; got != 1100 {
		t.Errorf("unpartitioned repeat service = %d, want 1100", got)
	}
	if d.Stats().LocalSeeks != 1 {
		t.Errorf("LocalSeeks = %d, want 1", d.Stats().LocalSeeks)
	}
}

func TestPartitionLocalityDisabledByDefault(t *testing.T) {
	d := NewDisk(testConfig(1))
	d.ReadPart(0, 100, 3)
	done := d.ReadPart(1100, 100, 3)
	if done != 1100+1100 {
		t.Errorf("default config should not discount: %d", done)
	}
}

func TestPartitionLocalityValidation(t *testing.T) {
	cfg := testConfig(1)
	cfg.PartitionLocality = 1.5
	if cfg.Validate() == nil {
		t.Error("PartitionLocality > 1 accepted")
	}
	cfg.PartitionLocality = -0.1
	if cfg.Validate() == nil {
		t.Error("negative PartitionLocality accepted")
	}
}

func TestFaultInjectionAddsServiceTime(t *testing.T) {
	d := NewDisk(testConfig(1))
	d.SetFaults(faultpoint.NewSet(1).Add(faultpoint.DiskRead, faultpoint.Rule{
		Every: 2, Delay: 5 * time.Microsecond,
	}))
	done1 := d.Read(0, 100) // hit 1: clean
	if done1 != 1100 {
		t.Errorf("clean read done = %d, want 1100", done1)
	}
	done2 := d.Read(done1, 100) // hit 2: +5000ns spike
	if got := done2 - done1; got != 1100+5000 {
		t.Errorf("faulted read service = %d, want 6100", got)
	}
	st := d.Stats()
	if st.FaultedReads != 1 || st.FaultNanos != 5000 {
		t.Errorf("fault stats = %+v", st)
	}
	d.SetFaults(nil) // disable again
	done3 := d.Read(done2, 100)
	if got := done3 - done2; got != 1100 {
		t.Errorf("after disabling, service = %d, want 1100", got)
	}
}

func TestPartitionLocalityPerChannel(t *testing.T) {
	cfg := testConfig(2)
	cfg.PartitionLocality = 0.5
	d := NewDisk(cfg)
	// Two simultaneous reads of partition 1 land on different
	// channels: neither gets a discount from the other.
	d.ReadPart(0, 100, 1)
	done := d.ReadPart(0, 100, 1)
	if done != 1100 {
		t.Errorf("parallel same-partition read = %d, want full seek 1100", done)
	}
}

// TestMetricsMirroring checks the obs mirror: every ReadPart updates
// the registered counters in lockstep with Stats.
func TestMetricsMirroring(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	cfg := testConfig(2)
	cfg.PartitionLocality = 0.5
	d := NewDisk(cfg)
	d.SetMetrics(m)

	d.ReadPart(0, 100, 1)
	d.ReadPart(0, 200, 1) // other channel: no locality yet
	d.ReadPart(2000, 50, 1)

	st := d.Stats()
	if got := m.Requests.Value(); got != st.Requests {
		t.Errorf("Requests mirror = %d, stats = %d", got, st.Requests)
	}
	if got := m.BytesRead.Value(); got != st.BytesRead {
		t.Errorf("BytesRead mirror = %d, stats = %d", got, st.BytesRead)
	}
	if got := m.QueueNanos.Value(); got != st.QueueNanos {
		t.Errorf("QueueNanos mirror = %d, stats = %d", got, st.QueueNanos)
	}
	if got := m.LocalSeeks.Value(); got != st.LocalSeeks {
		t.Errorf("LocalSeeks mirror = %d, stats = %d", got, st.LocalSeeks)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "subtrav_disk_requests_total 3") {
		t.Errorf("exposition missing disk requests:\n%s", b.String())
	}
	// Reset keeps the wiring; the counters are cumulative across runs.
	d.Reset()
	d.Read(0, 100)
	if got := m.Requests.Value(); got != 4 {
		t.Errorf("after reset, mirror = %d, want cumulative 4", got)
	}
}

// TestMetricsNilSafe: a disk without metrics must not touch obs.
func TestMetricsNilSafe(t *testing.T) {
	d := NewDisk(testConfig(1))
	d.SetMetrics(nil)
	d.Read(0, 100) // must not panic
}

// Regression: bytes*1e9/BytesPerSecond overflowed int64 for multi-GB
// reads (10 GB * 1e9 = 1e19 > 2^63-1), producing negative virtual
// service times. With the pre-fix formula, the first assertion below
// yields seek + (-846744073709551616/400e6) < 0.
func TestTransferNanosMultiGBNoOverflow(t *testing.T) {
	d := NewDisk(DefaultDiskConfig()) // 2 ms seek, 400 MB/s
	const tenGB = 10_000_000_000
	got := d.TransferNanos(tenGB)
	// 10e9 bytes at 400e6 B/s = 25 s = 25e9 ns, plus 2e6 seek.
	if want := int64(2_000_000 + 25_000_000_000); got != want {
		t.Errorf("TransferNanos(10GB) = %d, want %d", got, want)
	}
	if got < 0 {
		t.Fatalf("TransferNanos(10GB) went negative: %d", got)
	}
	done := d.Read(0, tenGB)
	if done <= 0 {
		t.Fatalf("Read(10GB) completion = %d, want positive", done)
	}
	if d.Stats().BusyNanos <= 0 {
		t.Errorf("BusyNanos = %d, want positive", d.Stats().BusyNanos)
	}
}

func TestTransferNanosSaturates(t *testing.T) {
	// Extreme bytes at 1 B/s would exceed int64 nanoseconds; the
	// helper must clamp, not wrap.
	if got := TransferNanos(1<<62, 1); got != math.MaxInt64 {
		t.Errorf("TransferNanos(2^62, 1) = %d, want MaxInt64", got)
	}
	if got := TransferNanos(-1, 100); got != 0 {
		t.Errorf("TransferNanos(-1, 100) = %d, want 0", got)
	}
	if got := TransferNanos(100, 0); got != 0 {
		t.Errorf("TransferNanos(100, 0) = %d, want 0", got)
	}
}

// Property: the overflow-safe helper matches arbitrary-precision
// arithmetic (truncated division) for random operands.
func TestTransferNanosMatchesBigIntQuick(t *testing.T) {
	f := func(bytesRaw uint64, bpsRaw uint32) bool {
		bytes := int64(bytesRaw >> 1) // keep non-negative
		bps := int64(bpsRaw)%1_000_000_000 + 1
		want := new(big.Int).Mul(big.NewInt(bytes), big.NewInt(1_000_000_000))
		want.Quo(want, big.NewInt(bps))
		if want.Cmp(big.NewInt(math.MaxInt64)) > 0 {
			want.SetInt64(math.MaxInt64)
		}
		return TransferNanos(bytes, bps) == want.Int64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
