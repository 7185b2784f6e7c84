package live

import "testing"

// TestCompletionWindowIsBounded: a unit that has served more queries
// than the window holds keeps a window-sized ring, an exact lifetime
// count, and exact CompletedSince answers for every time still inside
// the window.
func TestCompletionWindowIsBounded(t *testing.T) {
	t.Parallel()
	u := &liveUnit{}
	if got := u.CompletedSince(0); got != 0 {
		t.Fatalf("idle unit CompletedSince = %d, want 0", got)
	}
	const extra = 1000
	const total = completionWindow + extra
	// Completion i happens at time 10·i, so "since 10·i" has an exact
	// expected answer.
	for i := 0; i < total; i++ {
		u.recordCompletion(int64(10 * i))
		if i == completionWindow/2 {
			// Still growing: exact over the whole history.
			if got := u.CompletedSince(0); got != i+1 {
				t.Fatalf("before wrap: CompletedSince(0) = %d, want %d", got, i+1)
			}
		}
	}
	if len(u.completions) != completionWindow || cap(u.completions) > 2*completionWindow {
		t.Errorf("ring holds %d (cap %d) completion times, want %d", len(u.completions), cap(u.completions), completionWindow)
	}
	if got := u.completed.Load(); got != total {
		t.Errorf("completed = %d, want %d", got, total)
	}
	for _, since := range []int{total - 1, total - 7, total - completionWindow/2, extra + 1, extra} {
		want := total - since
		if got := u.CompletedSince(int64(10 * since)); got != want {
			t.Errorf("CompletedSince(completion %d) = %d, want %d", since, got, want)
		}
		// A time between two completions counts only the later ones.
		if got := u.CompletedSince(int64(10*since) - 5); got != want {
			t.Errorf("CompletedSince(just before completion %d) = %d, want %d", since, got, want)
		}
	}
	if got := u.CompletedSince(int64(10*total) + 1); got != 0 {
		t.Errorf("CompletedSince(future) = %d, want 0", got)
	}
	// Older than the window: saturates at the window size.
	for _, since := range []int64{0, 10 * (extra - 1)} {
		if got := u.CompletedSince(since); got != completionWindow {
			t.Errorf("CompletedSince(%d) = %d, want the window size %d", since, got, completionWindow)
		}
	}
}
