package leakcheck

import (
	"strings"
	"testing"
)

// parentLoop stands in for a server loop a test keeps up: it starts a child
// goroutine and then parks until released.
func parentLoop(started chan<- struct{}, stop <-chan struct{}) {
	go leakedChild(started, stop)
	<-stop
}

func leakedChild(started chan<- struct{}, stop <-chan struct{}) {
	started <- struct{}{}
	<-stop
}

// TestIgnoreMatchesOwnFramesOnly: exempting a parent's function by name
// hides the parent, but not a child it started, whose stack names the
// parent only in its "created by" line.
func TestIgnoreMatchesOwnFramesOnly(t *testing.T) {
	base := Take()
	started, stop := make(chan struct{}), make(chan struct{})
	defer close(stop)
	go parentLoop(started, stop)
	<-started

	var parent, child int
	leaked := base.leaked([]string{"leakcheck.parentLoop"})
	for _, stack := range leaked {
		switch {
		case strings.Contains(stack, "leakcheck.leakedChild("):
			child++
		case strings.Contains(stack, "leakcheck.parentLoop("):
			parent++
		}
	}
	if parent != 0 {
		t.Errorf("the ignored parent loop was reported %d time(s)", parent)
	}
	if child != 1 {
		t.Errorf("the parent's leaked child was reported %d time(s), want 1: ignoring a parent hid its child:\n\n%s", child, strings.Join(leaked, "\n\n"))
	}
}
