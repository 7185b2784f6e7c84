//go:build race

package main

// The race detector slows the smoke runs severalfold; their wall-clock
// limit is only held without it.
const raceDetector = true
