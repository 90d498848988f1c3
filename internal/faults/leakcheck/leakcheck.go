// Package leakcheck asserts that a test leaves no goroutines behind: the
// operator goroutines of a query (scatter producers and consumers,
// partition workers, sink writers) must all have exited by the
// time the query returns, on every path — success, error, contained panic,
// cancellation. A leaked goroutine here is a leaked grant or a deadlocked
// bounded channel waiting to happen.
package leakcheck

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long Check waits for stragglers before declaring a leak.
// Exiting goroutines are visible to runtime.NumGoroutine slightly after
// their work is done, so a few scheduling quanta of patience avoids flakes
// without masking real leaks.
const grace = 2 * time.Second

// Check snapshots the live goroutine count and registers a cleanup that
// fails the test if the count has not returned to the baseline (with a
// short grace period for goroutines still unwinding). Call it first in the
// test, before any query runs.
func Check(t testing.TB) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(grace)
		var n int
		for {
			n = runtime.NumGoroutine()
			if n <= base || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if n > base {
			t.Errorf("leakcheck: %d goroutines leaked (%d live, baseline %d)\n%s",
				n-base, n, base, stacks())
		}
	})
}

// stacks dumps all goroutine stacks, trimming the runtime's own
// bookkeeping goroutines out of the noise where recognizable.
func stacks() string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var keep []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "runtime.gopark") && strings.Contains(g, "[GC") {
			continue
		}
		keep = append(keep, g)
	}
	return fmt.Sprintf("--- goroutine dump ---\n%s", strings.Join(keep, "\n\n"))
}
