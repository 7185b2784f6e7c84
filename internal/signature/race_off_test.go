//go:build !race

package signature

const raceDetector = false
