// Package leakcheck is a test helper that proves goroutines started by
// the code under test are released by the end of the test. Cancellation
// plumbing (internal/pool Sweep, internal/serve job cancellation) exists
// precisely to free workers; these tests fail loudly if a cancelled job
// still holds any.
package leakcheck

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Check snapshots the current goroutine set and registers a cleanup that
// fails the test if, after a settle period, goroutines started during
// the test are still running. Call it first thing in the test.
//
// The comparison is by stack identity, not by count: goroutines whose
// creation site already existed at snapshot time are ignored, as are
// well-known runtime/testing/net-internal goroutines that outlive tests
// by design.
func Check(t *testing.T) {
	t.Helper()
	before := interestingStacks()
	t.Cleanup(func() {
		// Give cancelled workers a grace period to unwind; poll so the
		// common case (everything already gone) stays fast.
		deadline := time.Now().Add(2 * time.Second)
		var leaked []string
		for {
			leaked = leakedSince(before)
			if len(leaked) == 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if len(leaked) > 0 {
			t.Errorf("leakcheck: %d goroutine(s) leaked:\n%s",
				len(leaked), strings.Join(leaked, "\n---\n"))
		}
	})
}

// leakedSince returns the stacks of interesting goroutines whose
// creation signature was not present in the before set.
func leakedSince(before map[string]int) []string {
	var leaked []string
	now := interestingStacks()
	for sig, n := range now {
		if n > before[sig] {
			leaked = append(leaked, fmt.Sprintf("%dx %s", n-before[sig], sig))
		}
	}
	return leaked
}

// interestingStacks returns a multiset of goroutine signatures (first
// function frame plus creator frame), excluding goroutines that are
// expected to persist across tests.
func interestingStacks() map[string]int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	sigs := map[string]int{}
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		lines := strings.Split(g, "\n")
		if len(lines) < 2 {
			continue
		}
		sig := lines[1] // top-of-stack function
		for _, l := range lines {
			if strings.HasPrefix(l, "created by ") {
				sig += " <- " + l
				break
			}
		}
		if ignored(g, sig) {
			continue
		}
		sigs[strings.TrimSpace(sig)]++
	}
	return sigs
}

func ignored(stack, sig string) bool {
	for _, p := range []string{
		"testing.RunTests",
		"testing.(*T).Run",
		"testing.tRunner",
		"runtime.goexit",
		"runtime/trace",
		"runtime.gc",
		"runtime.bgsweep",
		"runtime.bgscavenge",
		"runtime.forcegchelper",
		"runtime.ReadTrace",
		"signal.signal_recv",
		"leakcheck.interestingStacks",
		// net/http keeps idle HTTP/2 and keep-alive machinery alive
		// between tests; httptest servers close their listeners but the
		// shared transport persists.
		"net/http.(*persistConn)",
		"net/http.(*http2",
		"internal/poll.runtime_pollWait",
	} {
		if strings.Contains(stack, p) || strings.Contains(sig, p) {
			return true
		}
	}
	return false
}
