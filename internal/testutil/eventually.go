package testutil

import (
	"testing"
	"time"
)

// Eventually polls cond until it holds, failing the test if it has not
// within ten seconds. It is for waiting on a background goroutine to
// reach a state the test cannot be signalled about.
func Eventually(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(500 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
