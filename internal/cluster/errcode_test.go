package cluster

import (
	"errors"
	"fmt"
	"net/rpc"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wgen"
)

func TestCodeRoundTrip(t *testing.T) {
	for _, c := range []Code{CodeMissingSource, CodeBadRequest, CodeCompile, CodeUnavailable} {
		err := codeErr(c, "details %d", 7)
		if got := CodeOf(err); got != c {
			t.Errorf("CodeOf(codeErr(%q)) = %q", c, got)
		}
		// net/rpc flattens server errors to strings: the code must survive.
		wire := rpc.ServerError(err.Error())
		if got := CodeOf(wire); got != c {
			t.Errorf("code lost on the wire: CodeOf(%q) = %q, want %q", wire, got, c)
		}
	}
}

func TestCodeOfUncoded(t *testing.T) {
	cases := []error{
		nil,
		errors.New("connection reset by peer"),
		rpc.ErrShutdown,
		errors.New("warp-err:"),          // truncated prefix
		errors.New("warp-err:malformed"), // no message separator
	}
	for _, err := range cases {
		if got := CodeOf(err); got != "" {
			t.Errorf("CodeOf(%v) = %q, want empty", err, got)
		}
	}
}

func TestSentinelHelpers(t *testing.T) {
	if !IsMissingSource(codeErr(CodeMissingSource, "worker: source not resident for hash abc")) {
		t.Error("IsMissingSource rejected a coded missing-source error")
	}
	if IsMissingSource(errors.New("worker: source not resident for hash abc")) {
		t.Error("uncoded text matched IsMissingSource — substring matching is back")
	}
}

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{fmt.Errorf("wrapped: %w", ErrDeadline), true},
		{rpc.ErrShutdown, true},
		{errors.New("read tcp 127.0.0.1: connection reset by peer"), true},
		{rpc.ServerError("something exploded server-side"), false},
		{rpc.ServerError(codeErr(CodeCompile, "front-end errors").Error()), false},
		{rpc.ServerError(codeErr(CodeUnavailable, "draining").Error()), true},
		{codeErr(CodeMissingSource, "not resident"), false},
	}
	for _, c := range cases {
		if got := transient(c.err); got != c.want {
			t.Errorf("transient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestRetryableCodes(t *testing.T) {
	if !CodeUnavailable.Retryable() {
		t.Error("unavailable must be retryable")
	}
	for _, c := range []Code{CodeMissingSource, CodeBadRequest, CodeCompile, Code("")} {
		if c.Retryable() {
			t.Errorf("%q must not be retryable", c)
		}
	}
}

// TestWorkerDrainRefusesNewCompiles checks the draining protocol directly:
// after drain starts, CompileBatch and Ping answer coded unavailable errors.
func TestWorkerDrainRefusesNewCompiles(t *testing.T) {
	w := NewWorker(0)
	if !w.drain(time.Second) {
		t.Fatal("idle worker failed to drain")
	}
	var reply BatchReply
	err := w.CompileBatch(core.BatchRequest{
		File: "m.w2", Source: wgen.SyntheticProgram(wgen.Tiny, 1), Items: []core.BatchItem{{Section: 1, Index: 0}},
	}, &reply)
	if CodeOf(err) != CodeUnavailable {
		t.Errorf("draining worker answered %v, want coded unavailable", err)
	}
	var ok bool
	if err := w.Ping(struct{}{}, &ok); CodeOf(err) != CodeUnavailable || ok {
		t.Errorf("draining worker still pings healthy: ok=%v err=%v", ok, err)
	}
}

// TestPoolOptionsDefaults pins the documented zero-value behavior.
func TestPoolOptionsDefaults(t *testing.T) {
	o := PoolOptions{}.withDefaults()
	if o.CallTimeout != 30*time.Second || o.MaxRetries != 3 || o.QuarantineAfter != 2 {
		t.Errorf("unexpected defaults: %+v", o)
	}
	if o.RetryBase <= 0 || o.RetryMax < o.RetryBase || o.DialRetry <= 0 || o.DialTimeout <= 0 {
		t.Errorf("degenerate backoff/probe defaults: %+v", o)
	}
	d := PoolOptions{CallTimeout: -1, MaxRetries: -1, DialRetry: -1}.withDefaults()
	if d.CallTimeout >= 0 || d.MaxRetries != 0 || d.DialRetry >= 0 {
		t.Errorf("negative overrides not preserved: %+v", d)
	}
}

// TestFlagPoolOptions pins the binaries' flag mapping: a 0 flag disables
// the mechanism, any other value passes through, and PoolOptions' own
// defaults never leak in.
func TestFlagPoolOptions(t *testing.T) {
	cases := []struct {
		callTimeout time.Duration
		maxRetries  int
		dialRetry   time.Duration
		want        PoolOptions // after withDefaults
	}{
		{0, 0, 0, PoolOptions{CallTimeout: -1, MaxRetries: 0, DialRetry: -1}},
		{30 * time.Second, 3, 500 * time.Millisecond, PoolOptions{CallTimeout: 30 * time.Second, MaxRetries: 3, DialRetry: 500 * time.Millisecond}},
		{time.Second, 8, 0, PoolOptions{CallTimeout: time.Second, MaxRetries: 8, DialRetry: -1}},
		{0, 0, time.Second, PoolOptions{CallTimeout: -1, MaxRetries: 0, DialRetry: time.Second}},
	}
	for _, c := range cases {
		got := FlagPoolOptions(c.callTimeout, c.maxRetries, c.dialRetry).withDefaults()
		if got.CallTimeout != c.want.CallTimeout || got.MaxRetries != c.want.MaxRetries || got.DialRetry != c.want.DialRetry {
			t.Errorf("FlagPoolOptions(%v, %d, %v) = timeout %v, retries %d, dial-retry %v; want %v, %d, %v",
				c.callTimeout, c.maxRetries, c.dialRetry, got.CallTimeout, got.MaxRetries, got.DialRetry,
				c.want.CallTimeout, c.want.MaxRetries, c.want.DialRetry)
		}
	}
}
