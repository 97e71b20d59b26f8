// Package leakcheck is the tests' goroutine-leak detector. It diffs
// goroutine stacks instead of comparing runtime.NumGoroutine() to a
// baseline plus slack: a count passes or fails depending on what else the
// test binary happened to have running, whereas a stack names the goroutine
// that is still alive — and lets a test exempt, by frame, the servers it
// deliberately keeps up.
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Snapshot is the set of goroutine IDs alive when it was taken.
type Snapshot map[string]bool

// Take records the goroutines alive now; call it before the code under test
// starts anything.
func Take() Snapshot {
	base := Snapshot{}
	for id := range stacks() {
		base[id] = true
	}
	return base
}

// Check fails t when a goroutine started since the snapshot is still alive
// after a grace period. Goroutines whose own frames contain one of the
// ignore substrings (a function name such as "wire.(*Server).acceptLoop")
// are exempt: they belong to a server the test is still using. The
// "created by" line is not one of a goroutine's own frames, so exempting a
// server loop does not exempt the goroutines that loop started.
func (base Snapshot) Check(t testing.TB, ignore ...string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		leaked := base.leaked(ignore)
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%d goroutine(s) leaked:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (base Snapshot) leaked(ignore []string) []string {
	var out []string
next:
	for id, stack := range stacks() {
		if base[id] {
			continue
		}
		own, _, _ := strings.Cut(stack, "\ncreated by ")
		for _, frame := range ignore {
			if strings.Contains(own, frame) {
				continue next
			}
		}
		out = append(out, stack)
	}
	return out
}

// stacks returns every live goroutine's stack keyed by goroutine ID.
func stacks() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for _, g := range strings.Split(strings.TrimSpace(string(buf)), "\n\n") {
		// "goroutine 42 [chan receive]:\n..."
		if id, ok := strings.CutPrefix(g, "goroutine "); ok {
			id, _, _ = strings.Cut(id, " ")
			out[id] = g
		}
	}
	return out
}
