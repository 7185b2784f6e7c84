//go:build race

package sched

// raceDetector reports a -race build, under which sync.Pool drops items
// at random (the scorer's round scratch is pooled) and an allocation
// count cannot be pinned.
const raceDetector = true
