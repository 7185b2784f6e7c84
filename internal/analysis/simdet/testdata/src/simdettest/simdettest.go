// Package simdettest is an analysistest fixture: each // want line
// must be flagged by simdet, everything else must stay quiet.
package simdettest

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"subtrav/internal/xrand"
)

// Flagged: wall-clock reads are nondeterministic across runs.
func wallClock() int64 {
	t := time.Now() // want "wall-clock time.Now in deterministic code"
	return t.UnixNano()
}

func wallElapsed(start time.Time) time.Duration {
	return time.Since(start) // want "wall-clock time.Since in deterministic code"
}

// Allowed: pure time arithmetic and construction read no clock.
func virtualDeadline(nowNanos int64, d time.Duration) int64 {
	return nowNanos + d.Nanoseconds()
}

// Flagged: the global math/rand source is seeded process-wide.
func globalRand(n int) int {
	return rand.Intn(n) // want "global math/rand.Intn draws from the process-wide source"
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "global math/rand.Shuffle"
}

// Allowed: an explicitly seeded source is reproducible.
func seededStdRand(seed int64, n int) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(n)
}

// Allowed: the repo's seeded splittable RNG is the blessed source.
func seededXrand(seed uint64, n int) int {
	rng := xrand.New(seed)
	return rng.Intn(n)
}

// Flagged: emitting during map iteration observes randomized order.
func emitUnsorted(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want "call to fmt.Printf during map iteration runs in randomized map order"
	}
}

func sendUnsorted(m map[string]int, ch chan int) {
	for _, v := range m {
		ch <- v // want "channel send during map iteration"
	}
}

// Allowed: collect, sort, then emit.
func emitSorted(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s=%d\n", k, m[k])
	}
}

// Flagged: float addition is not associative, so the sum's low bits
// follow map order.
func floatTotal(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v // want "floating-point \+= during map iteration"
	}
	return total
}

// Allowed: integer aggregation and map writes commute.
func intTotal(m map[string]int) (int, map[string]int) {
	n := 0
	out := make(map[string]int, len(m))
	for k, v := range m {
		n += v
		out[k] = int(int64(v))
	}
	return n, out
}

// Allowed: a documented suppression swallows the finding.
func suppressedWallClock() int64 {
	//lint:allow simdet boot-time banner only, never feeds the event queue
	return time.Now().UnixNano()
}
