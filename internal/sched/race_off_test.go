//go:build !race

package sched

const raceDetector = false
