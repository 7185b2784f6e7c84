//go:build race

package signature

// raceDetector reports a -race build, under which sync.Pool drops items
// at random and the pooled-scratch allocation guard cannot hold.
const raceDetector = true
