package cluster_test

// Pipeline tests over real RPC workers: the overlapped master's output must
// match the sequential compiler, a chaos-injected hang in one section must
// cancel its siblings promptly (no waiting out the straggler, no goroutine
// leak), and a caller cancelling mid-stream must abandon the in-flight RPC
// and leave the pool, and other builds on it, undisturbed.

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/chaos"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/wgen"
	"repro/internal/wire"
)

// TestPipelinedRPCMatchesSequential drives the straggler workload through
// real RPC workers: pipeline ≡ sequential.
func TestPipelinedRPCMatchesSequential(t *testing.T) {
	noAmbientDiskCache(t)
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, serr := cluster.NewWorkerServer("127.0.0.1:0", 0)
		if serr != nil {
			t.Fatal(serr)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	pool, err := cluster.DialPoolWith(addrs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	stats := compileBoth(t, "mixed.w2", wgen.MixedProgram(8), pool)
	if stats.Pipeline.CriticalPath <= 0 {
		t.Errorf("pipeline stats not populated: %+v", stats.Pipeline)
	}
}

// TestHangCancelsSiblingSections injects an open-ended hang into the first
// compile RPC of a multi-section build with failover disabled: the hung
// section's deadline error must cancel its sibling sections promptly —
// the master returns long before the hang would release — without leaking
// goroutines, and a retry against the recovered server compiles
// word-identical to sequential.
func TestHangCancelsSiblingSections(t *testing.T) {
	noAmbientDiskCache(t)
	base := leakcheck.Take()
	src := wgen.MultiSectionProgram(wgen.Small, 3)

	// One scripted hang (until server close ≈ an hour), then pass-through.
	srv, addr, err := chaos.Serve("127.0.0.1:0", 0, wire.Script(wire.Fault{Kind: wire.Hang}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	opts := fastOpts()
	opts.CallTimeout = 500 * time.Millisecond // expire the hang fast
	opts.MaxRetries = -1                      // no failover: the deadline is fatal
	opts.DisableFallback = true               // and no local rescue either
	pool, err := cluster.DialPoolWith([]string{addr}, opts)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, _, cerr := core.ParallelCompile("m.w2", src, pool, compiler.Options{})
	elapsed := time.Since(start)
	if cerr == nil {
		t.Fatal("compile with a hung section succeeded")
	}
	if elapsed > 30*time.Second {
		t.Fatalf("master waited %v — siblings were not cancelled promptly", elapsed)
	}
	if !strings.Contains(cerr.Error(), "section ") {
		t.Errorf("error lost its section attribution: %v", cerr)
	}
	// The surviving error must be the hang's fatal dispatch failure, not a
	// cancellation echo from a severed sibling.
	if errors.Is(cerr, context.Canceled) {
		t.Errorf("cancellation echo masked the real error: %v", cerr)
	}
	pool.Close()

	// No goroutine leak: severed section masters and dispatchers drain, and
	// the hung handler releases with its connection. Only the chaos server's
	// accept loop outlives the pool — the retry below needs it.
	base.Check(t, "wire.(*Server).acceptLoop(")

	// Retry on a fresh pool: the script is exhausted, so the same server now
	// passes everything through — and the result is word-identical.
	pool2, err := cluster.DialPoolWith([]string{addr}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool2.Close()
	compileBoth(t, "m.w2", src, pool2)
}

// TestMidStreamCancellationRPC cancels the caller's context while the
// straggler function hangs in flight on a real RPC worker: the master must
// return the cancellation promptly (abandoning the in-flight call instead of
// waiting out the hang), and the same pool must serve a clean, word-
// identical retry afterwards.
func TestMidStreamCancellationRPC(t *testing.T) {
	noAmbientDiskCache(t)
	src := wgen.MixedProgram(4)

	// First call hangs until the server closes; everything after passes.
	srv, addr, err := chaos.Serve("127.0.0.1:0", 0, wire.Script(wire.Fault{Kind: wire.Hang}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pool, err := cluster.DialPoolWith([]string{addr}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, cerr := core.ParallelCompileContext(ctx, "mixed.w2", src, pool, compiler.Options{},
			core.ParallelOptions{})
		done <- cerr
	}()
	// Give the first request time to reach the worker and lodge in the hang,
	// then cancel the whole compilation.
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case cerr := <-done:
		if cerr == nil {
			t.Fatal("cancelled compile reported success")
		}
		if !errors.Is(cerr, context.Canceled) {
			t.Fatalf("cancellation masked: %v", cerr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not abandon the in-flight RPC")
	}

	// The worker went back into rotation with the abandoned call still
	// parked on it: the retry on the very same pool and connection passes
	// through (script exhausted) and matches sequential.
	compileBoth(t, "mixed.w2", src, pool)
}

// hangFirst is a worker that reports each compile call on arrived (without
// blocking once its buffer is full) and then applies plan to it.
type hangFirst struct {
	*cluster.Worker
	conn    *wire.Conn
	plan    *wire.Plan
	arrived chan<- struct{}
}

func (h *hangFirst) CompileBatch(req core.BatchRequest, reply *cluster.BatchReply) error {
	select {
	case h.arrived <- struct{}{}:
	default:
	}
	if err := h.plan.Inject(h.conn); err != nil {
		return err
	}
	return h.Worker.CompileBatch(req, reply)
}

// TestCancelledBuildLeavesSiblingAlone runs two builds on one RPCPool whose
// only worker hangs build A's first call. Build A is cancelled while that
// call is in flight. Cancelling abandons the call but keeps the worker's
// connection, so build B runs on it to a word-identical module with no
// retry and no failover.
func TestCancelledBuildLeavesSiblingAlone(t *testing.T) {
	noAmbientDiskCache(t)
	src := wgen.SyntheticProgram(wgen.Small, 8)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := cluster.NewWorker(0)
	plan := wire.Script(wire.Fault{Kind: wire.Hang})
	arrived := make(chan struct{}, 1)
	srv := wire.Serve(ln, func(c *wire.Conn) map[string]any {
		return map[string]any{"Worker": &hangFirst{Worker: w, conn: c, plan: plan, arrived: arrived}}
	})
	defer srv.Close()
	// No call deadline: the test counts retries, and a compile slowed down
	// by the race detector must not expire into one.
	opts := fastOpts()
	opts.CallTimeout = -1
	pool, err := cluster.DialPoolWith([]string{srv.Addr()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	ctxA, cancelA := context.WithCancel(context.Background())
	doneA := make(chan error, 1)
	go func() {
		_, _, err := core.ParallelCompileContext(ctxA, "a.w2", src, pool, compiler.Options{}, core.ParallelOptions{})
		doneA <- err
	}()
	<-arrived

	type result struct {
		res *compiler.Result
		st  *core.ParallelStats
		err error
	}
	doneB := make(chan result, 1)
	go func() {
		res, st, err := core.ParallelCompile("b.w2", src, pool, compiler.Options{})
		doneB <- result{res, st, err}
	}()
	cancelA()
	if err := <-doneA; !errors.Is(err, context.Canceled) {
		t.Fatalf("build A answered %v, want context.Canceled", err)
	}
	b := <-doneB
	if b.err != nil {
		t.Fatalf("build B: %v", b.err)
	}
	seq, err := compiler.CompileModule("b.w2", src, compiler.Options{})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if err := core.VerifySameOutput(seq.Module, b.res.Module); err != nil {
		t.Errorf("build B differs from sequential: %v", err)
	}
	if f := b.st.Faults; f.Retries != 0 || f.Failovers != 0 {
		t.Errorf("build B saw retries=%d failovers=%d after A's cancellation, want 0 and 0 (%s)", f.Retries, f.Failovers, f)
	}
}
