package cache

import "testing"

// FuzzCacheOps decodes the input into the op stream of
// TestSlabCacheMatchesReference (see runCacheOps) and holds the slab
// cache to the reference after every op. CI runs it for ten seconds
// (fuzz-smoke); the seeds under testdata/fuzz run on every `go test`.
func FuzzCacheOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip("long inputs only repeat the short ones")
		}
		runCacheOps(t, data)
	})
}
