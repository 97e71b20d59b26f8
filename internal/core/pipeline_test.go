package core

// Tests for the overlapped master pipeline: word-identical frontend-error
// aborts despite speculative dispatch, prompt end-to-end cancellation
// without goroutine leaks, and the self-consistency of the timing
// decomposition under overlap. (Output parity is core_test.go's table.)

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/leakcheck"
	"repro/internal/wgen"
)

// TestFrontendErrorAbortWordIdentical checks speculative dispatch loses its
// bet gracefully: a module whose frontend fails must abort with the
// sequential compiler's diagnostics text — the frontend's verdict, not a
// cancelled section's echo — even though section masters were already forked
// when the verdict arrived.
func TestFrontendErrorAbortWordIdentical(t *testing.T) {
	bad := []byte(`
module m (out ys: float[1])
section 1 of 1 {
    function f() { send(Y, 1.0); }
    function g() { undeclared = 1; send(Y, 2.0); }
}
`)
	_, _, bag := compiler.Frontend("bad.w2", bad)
	if !bag.HasErrors() {
		t.Fatal("sequential frontend accepted a semantically bad module")
	}
	want := "master: front-end errors, compilation aborted:\n" + bag.String()
	_, _, err := ParallelCompile("bad.w2", bad, newLocalBackend(2), compiler.Options{})
	if err == nil {
		t.Fatal("pipelined master accepted a semantically bad module")
	}
	if err.Error() != want {
		t.Errorf("abort diagnostics differ:\npipeline:   %s\nsequential: %s", err, want)
	}
}

// gateBackend blocks its first call until the request's ctx is cancelled
// (signalling entry on the way in), making mid-stream cancellation
// deterministic; every other call delegates.
type gateBackend struct {
	*localBackend
	entered chan struct{}
	mu      sync.Mutex
	once    bool
}

func (b *gateBackend) CompileBatch(ctx context.Context, req BatchRequest) ([]*CompileReply, error) {
	first := false
	b.mu.Lock()
	if !b.once {
		b.once, first = true, true
	}
	b.mu.Unlock()
	if first {
		close(b.entered)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return b.localBackend.CompileBatch(ctx, req)
}

// TestCallerCancellationSeversFleet cancels the caller's ctx while a
// section is mid-compile and checks the master returns promptly with the
// cancellation (never a masked or invented error), leaks no goroutines, and
// that an immediate retry compiles word-identical to sequential.
func TestCallerCancellationSeversFleet(t *testing.T) {
	src := wgen.MixedProgram(6)
	base := leakcheck.Take()

	gate := &gateBackend{localBackend: newLocalBackend(2), entered: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		err error
	}
	done := make(chan result, 1)
	go func() {
		_, _, err := ParallelCompileContext(ctx, "mixed.w2", src, gate, compiler.Options{}, ParallelOptions{})
		done <- result{err: err}
	}()
	<-gate.entered
	cancel()
	select {
	case r := <-done:
		if r.err == nil {
			t.Fatal("cancelled compile reported success")
		}
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("cancellation masked: %v", r.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled compile did not return promptly")
	}

	// No goroutine leak: the fleet must drain back to the baseline.
	base.Check(t)

	// The retry compiles clean and word-identical to sequential.
	seq, err := compiler.CompileModule("mixed.w2", src, compiler.Options{})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, _, err := ParallelCompile("mixed.w2", src, newLocalBackend(2), compiler.Options{})
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if err := VerifySameOutput(seq.Module, par.Module); err != nil {
		t.Errorf("retry output differs from sequential: %v", err)
	}
}

// TestPipelineStatsInvariants pins the timing decomposition's internal
// consistency under overlap, so a future stats change cannot silently
// report nonsense (an overlap longer than the phase it overlaps, a critical
// path longer than the wall clock).
func TestPipelineStatsInvariants(t *testing.T) {
	src := wgen.MixedProgram(8)
	_, s, err := ParallelCompileWith("mixed.w2", src, newLocalBackend(4), compiler.Options{}, ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := s.Pipeline
	if p.FrontendOverlap > s.FrontendTime {
		t.Errorf("FrontendOverlap %v > FrontendTime %v", p.FrontendOverlap, s.FrontendTime)
	}
	if p.FrontendOverlap > s.CompileWallTime {
		t.Errorf("FrontendOverlap %v > CompileWallTime %v", p.FrontendOverlap, s.CompileWallTime)
	}
	if p.LinkOverlap > p.LinkTime {
		t.Errorf("LinkOverlap %v > LinkTime %v", p.LinkOverlap, p.LinkTime)
	}
	if s.CompileWallTime > s.Elapsed {
		t.Errorf("CompileWallTime %v > Elapsed %v", s.CompileWallTime, s.Elapsed)
	}
	if s.FrontendTime > s.Elapsed {
		t.Errorf("FrontendTime %v > Elapsed %v", s.FrontendTime, s.Elapsed)
	}
	if p.CriticalPath > s.Elapsed {
		t.Errorf("CriticalPath %v > Elapsed %v", p.CriticalPath, s.Elapsed)
	}
	want := s.SetupTime + max(s.FrontendTime, s.CompileWallTime) + s.BackendTail
	if p.CriticalPath != want {
		t.Errorf("CriticalPath %v != setup+max(frontend,compile-wall)+tail %v", p.CriticalPath, want)
	}
	if p.CriticalPath <= 0 || p.LinkTime <= 0 || p.DriverTime <= 0 {
		t.Errorf("pipeline stats not populated: %+v", p)
	}
}
