package service

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/fcache"
	"repro/internal/leakcheck"
	"repro/internal/wgen"
)

// Cross-build fleet suite: concurrent builds multiplexed onto the
// daemon's shared dispatch queue must stay word-identical to their
// sequential compiles at every worker count, survive one build's
// mid-flight cancellation without perturbing its siblings, and keep a
// tiny tenant's job from starving behind a huge one.

// TestCrossBuildStealParity runs two tenants' distinct modules through one
// daemon concurrently at workers 1/2/4/8 and checks both outputs are
// word-identical to the sequential oracle, with correctly scoped per-job
// fleet stats (shared fleet, per-slot idle decomposition).
func TestCrossBuildStealParity(t *testing.T) {
	noAmbientDiskCache(t)
	srcA := wgen.SkewedProgram(2, 4)
	srcB := wgen.MixedProgram(24)
	seqA, err := compiler.CompileModule("a.w2", srcA, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seqB, err := compiler.CompileModule("b.w2", srcB, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		// A pool with a fresh cache per round: every job recompiles for
		// real, so the shared fleet is genuinely exercised rather than
		// answered from the object tier.
		_, addr := startDaemon(t, Config{
			Backend:   cluster.NewLocalPoolWith(workers, fcache.New(0)),
			MaxActive: 2,
		})
		clA, clB := dialT(t, addr), dialT(t, addr)
		clA.SetIdentity("tenant-a")
		clB.SetIdentity("tenant-b")

		type jobOut struct {
			resp *Response
			err  error
		}
		outA, outB := make(chan jobOut, 1), make(chan jobOut, 1)
		go func() {
			r, err := clA.Compile(context.Background(), "a.w2", srcA, compiler.Options{}, core.ParallelOptions{})
			outA <- jobOut{r, err}
		}()
		go func() {
			r, err := clB.Compile(context.Background(), "b.w2", srcB, compiler.Options{}, core.ParallelOptions{})
			outB <- jobOut{r, err}
		}()
		a, b := <-outA, <-outB
		if a.err != nil || b.err != nil {
			t.Fatalf("workers=%d: job errors: a=%v b=%v", workers, a.err, b.err)
		}
		if err := core.VerifySameOutput(seqA.Module, a.resp.Module); err != nil {
			t.Fatalf("workers=%d: tenant A differs from sequential: %v", workers, err)
		}
		if err := core.VerifySameOutput(seqB.Module, b.resp.Module); err != nil {
			t.Fatalf("workers=%d: tenant B differs from sequential: %v", workers, err)
		}
		for name, resp := range map[string]*Response{"a": a.resp, "b": b.resp} {
			st := resp.Stats.Steal
			if !st.Shared {
				t.Errorf("workers=%d: job %s must report the shared fleet: %+v", workers, name, st)
			}
			if len(st.IdleTime) != workers {
				t.Errorf("workers=%d: job %s idle decomposition has %d slots", workers, name, len(st.IdleTime))
			}
		}
	}
}

// TestCrossBuildCancellationLeavesSiblingIntact cancels one build while it
// is pinned in flight on the shared fleet and checks the sibling build
// completes word-identically, the cancelled build's queued units drain as
// orphans (the fleet keeps serving afterwards), no parallelism token
// leaks, and no goroutines leak.
func TestCrossBuildCancellationLeavesSiblingIntact(t *testing.T) {
	noAmbientDiskCache(t)
	baseline := leakcheck.Take()

	pool := cluster.NewLocalPoolWith(2, fcache.New(0))
	gated := newGatedBackend(pool)
	d, err := NewDaemon(Config{Backend: gated, MaxActive: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln := listenT(t)
	go d.Serve(ln)

	srcA := wgen.SkewedProgram(2, 4)
	srcB := wgen.MixedProgram(16)
	seqA, err := compiler.CompileModule("a.w2", srcA, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seqB, err := compiler.CompileModule("b.w2", srcB, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}

	clA, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	clA.SetIdentity("tenant-a")
	ctxA, cancelA := context.WithCancel(context.Background())
	aDone := make(chan error, 1)
	go func() {
		_, err := clA.Compile(ctxA, "a.w2", srcA, compiler.Options{}, core.ParallelOptions{})
		aDone <- err
	}()
	<-gated.started // build A is in flight, pinned at the backend

	clB, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer clB.Close()
	clB.SetIdentity("tenant-b")
	bDone := make(chan error, 1)
	var respB *Response
	go func() {
		r, err := clB.Compile(context.Background(), "b.w2", srcB, compiler.Options{}, core.ParallelOptions{})
		respB = r
		bDone <- err
	}()

	// Cancel A mid-flight. Its pinned units return the moment their context
	// dies — before the gate opens — and its queued units are dropped by
	// Build.Close as orphans that never reach the backend.
	cancelA()
	if err := <-aDone; err == nil {
		t.Fatal("cancelled job A reported success")
	}
	clA.Close()
	waitFor(t, "job A cancelled in daemon stats", func() bool {
		return d.snapshotStats().JobsCancelled >= 1
	})

	close(gated.release) // open the gate: only B's units remain
	if err := <-bDone; err != nil {
		t.Fatalf("sibling build B failed after A's cancellation: %v", err)
	}
	if err := core.VerifySameOutput(seqB.Module, respB.Module); err != nil {
		t.Fatalf("sibling build B differs from sequential: %v", err)
	}

	// The fleet keeps serving after the cancellation: a fresh job through
	// the same shared fleet still completes correctly (no orphan poisoning,
	// no stuck slots). It resubmits A, whose cancelled units never compiled,
	// so its functions are not answered from B's cached objects.
	r2, err := clB.Compile(context.Background(), "a.w2", srcA, compiler.Options{}, core.ParallelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifySameOutput(seqA.Module, r2.Module); err != nil {
		t.Fatalf("post-cancellation job differs from sequential: %v", err)
	}
	if n := d.snapshotStats().Tokens.Outstanding; n != 0 {
		t.Errorf("%d parallelism tokens outstanding with no jobs running", n)
	}

	clB.Close()
	if err := d.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown (token-leak check): %v", err)
	}
	ln.Close()

	// Goroutine-leak check: daemon slots, job goroutines, and conn handlers
	// must all be gone once the daemon is down.
	baseline.Check(t)
}

// TestTinyJobNotStarvedByHugeJob is the daemon-level starvation guard: a
// tiny tenant's job submitted while a huge tenant saturates the shared
// fleet must complete while the huge job is still running, within a
// bounded multiple of its solo latency — the deficit-weighted pop at
// work.
func TestTinyJobNotStarvedByHugeJob(t *testing.T) {
	noAmbientDiskCache(t)
	_, addr := startDaemon(t, Config{
		Backend:   cluster.NewLocalPoolWith(2, fcache.New(0)),
		MaxActive: 2,
	})
	tinyCl := dialT(t, addr)
	tinyCl.SetIdentity("tenant-tiny")
	hugeCl := dialT(t, addr)
	hugeCl.SetIdentity("tenant-huge")

	// Every tiny job edits all three functions afresh, so none is answered
	// from the pool's object cache: each one really compiles.
	tinyJobs := uint64(0)
	tinySrc := func() []byte {
		tinyJobs++
		src, _, err := wgen.MutateFunctions(wgen.SmallFuncsProgram(3), 3, tinyJobs)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	hugeSrc := wgen.SkewedProgram(3, 10)

	// Solo latency: the tiny job with the daemon otherwise idle. The first
	// compile also warms the process (JIT-free, but allocator and page
	// cache warmup are real); a second solo run is the fair yardstick.
	for i := 0; i < 2; i++ {
		if _, err := tinyCl.Compile(context.Background(), "tiny.w2", tinySrc(), compiler.Options{}, core.ParallelOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	src := tinySrc()
	t0 := time.Now()
	if _, err := tinyCl.Compile(context.Background(), "tiny.w2", src, compiler.Options{}, core.ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	solo := time.Since(t0)

	var hugeDone atomic.Bool
	var hugeElapsed time.Duration
	hugeErr := make(chan error, 1)
	hugeStart := time.Now()
	go func() {
		_, err := hugeCl.Compile(context.Background(), "huge.w2", hugeSrc, compiler.Options{}, core.ParallelOptions{})
		hugeElapsed = time.Since(hugeStart)
		hugeDone.Store(true)
		hugeErr <- err
	}()
	// Give the huge job a head start so it owns the fleet when tiny arrives.
	time.Sleep(20 * time.Millisecond)

	src = tinySrc()
	t1 := time.Now()
	if _, err := tinyCl.Compile(context.Background(), "tiny.w2", src, compiler.Options{}, core.ParallelOptions{}); err != nil {
		t.Fatal(err)
	}
	loaded := time.Since(t1)
	hugeStillRunning := !hugeDone.Load()
	if err := <-hugeErr; err != nil {
		t.Fatal(err)
	}

	// What the deficit weighting guarantees is that the tiny job waits for
	// at most one in-flight huge unit per slot, never the huge tenant's
	// whole queue — a starved tiny job's latency approaches the huge job's
	// entire runtime. What it cannot grant is more than a fair share of the
	// machine: on a single-CPU -race box the tiny job still timeshares with
	// the huge compiles it overlaps. The bound therefore takes the solo
	// multiple (generous for scheduling noise) or 3/4 of the huge job's
	// measured runtime, whichever is larger; a starved run lands at ~1x.
	bound := 20*solo + 500*time.Millisecond
	if frac := 3 * hugeElapsed / 4; frac > bound {
		bound = frac
	}
	if loaded > bound {
		t.Errorf("tiny job took %v under load vs %v solo (huge ran %v, bound %v, huge still running: %v)",
			loaded, solo, hugeElapsed, bound, hugeStillRunning)
	}
	if !hugeStillRunning {
		t.Logf("note: huge job finished before tiny completed (loaded=%v solo=%v); starvation not exercised this run", loaded, solo)
	}
}

// listenT opens a loopback listener. The caller closes it explicitly:
// leak-checking tests need deterministic teardown order, not t.Cleanup.
func listenT(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}
