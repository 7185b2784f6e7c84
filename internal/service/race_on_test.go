//go:build race

package service

// raceDetector reports a -race build, under which sync.Pool drops items
// at random (the scheduler's round scratch and the runtime's workspaces
// are pooled) and an allocation count cannot be pinned.
const raceDetector = true
