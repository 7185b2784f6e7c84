package signature

import "testing"

// FuzzTableOps decodes the input into the op stream of
// TestFlatTableMatchesReference (see runTableOps) and holds the flat
// table to the reference after every op. CI runs it for ten seconds
// (fuzz-smoke); the seeds under testdata/fuzz run on every `go test`.
func FuzzTableOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip("long inputs only repeat the short ones")
		}
		runTableOps(t, data)
	})
}
