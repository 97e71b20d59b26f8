package cluster_test

// Recovery-path tests for the fault-tolerant dispatch layer: worker
// crashes, hangs past the call deadline, injected error replies, total
// cluster loss with local fallback, and quarantine/readmission. The chaos
// package injects faults deterministically, so every path here is driven
// on purpose rather than by timing luck.

import (
	"context"
	"net"
	"net/rpc"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/chaos"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/fcache"
	"repro/internal/wgen"
	"repro/internal/wire"
)

// noAmbientDiskCache clears WARP_CACHE_DIR for tests that assert dispatch
// actually happens: CI runs this package with a shared cache directory set,
// and a master answering everything from a pre-populated disk tier would
// make failover and batching assertions vacuous. Must be called before any
// pool or worker is created — the tier is attached at construction.
func noAmbientDiskCache(t *testing.T) {
	t.Helper()
	t.Setenv(fcache.EnvCacheDir, "")
}

// fastOpts are pool options tuned for tests: short probe periods and
// deterministic jitter. The call deadline stays generous — loaded CI boxes
// stall real compiles for hundreds of milliseconds, and a too-tight
// deadline would quarantine healthy workers; tests that need deadline
// expiry (the hang test) shorten it explicitly.
func fastOpts() cluster.PoolOptions {
	return cluster.PoolOptions{
		CallTimeout: 10 * time.Second,
		DialRetry:   50 * time.Millisecond,
		DialTimeout: time.Second,
		RetryBase:   time.Millisecond,
		RetryMax:    10 * time.Millisecond,
		Seed:        42,
	}
}

// compileBoth compiles src sequentially and through the pool and fails the
// test unless the parallel result exists and is word-identical.
func compileBoth(t *testing.T, name string, src []byte, pool *cluster.RPCPool) *core.ParallelStats {
	t.Helper()
	seq, err := compiler.CompileModule(name, src, compiler.Options{})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, stats, err := core.ParallelCompile(name, src, pool, compiler.Options{})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if err := core.VerifySameOutput(seq.Module, par.Module); err != nil {
		t.Errorf("output differs from sequential: %v", err)
	}
	return stats
}

// TestChaosCrashAndHangFailover is the acceptance scenario: one worker
// drops the connection mid-call (crash), one hangs past the call deadline,
// one is healthy. The compile must still succeed with word-identical
// output, and the stats must show the failovers that made it so.
func TestChaosCrashAndHangFailover(t *testing.T) {
	noAmbientDiskCache(t)
	hangSrv, hangAddr, err := chaos.Serve("127.0.0.1:0", 0, wire.Script(wire.Fault{Kind: wire.Hang}))
	if err != nil {
		t.Fatal(err)
	}
	defer hangSrv.Close()
	dropSrv, dropAddr, err := chaos.Serve("127.0.0.1:0", 0, wire.Script(wire.Fault{Kind: wire.Drop}))
	if err != nil {
		t.Fatal(err)
	}
	defer dropSrv.Close()
	ln, okAddr, err := cluster.ServeWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// A shortened deadline so the hung call (which blocks for an hour)
	// expires quickly. The module's functions compile in single-digit
	// milliseconds — even race-detector and loaded-CI slowdowns leave two
	// orders of magnitude of headroom, so healthy calls never trip. Extra
	// retries keep a transient storm ending in remote success, not local
	// fallback.
	opts := fastOpts()
	opts.CallTimeout = 5 * time.Second
	opts.MaxRetries = 8
	pool, err := cluster.DialPoolWith([]string{hangAddr, dropAddr, okAddr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	stats := compileBoth(t, "user.w2", wgen.UserProgram(), pool)
	f := stats.Faults
	if f.Failovers < 1 {
		t.Errorf("expected >= 1 failover, got %s", f)
	}
	if f.DeadlineHits < 1 {
		t.Errorf("hung worker never hit the call deadline: %s", f)
	}
	if f.Retries < 2 {
		t.Errorf("expected retries for both the crash and the hang, got %s", f)
	}
}

// TestWorkerKilledMidModule kills one of two real workers while a module
// compiles and checks the compilation still succeeds, identical to the
// sequential compiler — the recovery the paper's system lacked.
func TestWorkerKilledMidModule(t *testing.T) {
	noAmbientDiskCache(t)
	ln1, addr1, err := cluster.ServeWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln1.Close()
	ln2, addr2, err := cluster.ServeWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	pool, err := cluster.DialPoolWith([]string{addr1, addr2}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Kill worker 2 shortly after the section masters start dispatching.
	killer := time.AfterFunc(5*time.Millisecond, func() { ln2.Close() })
	defer killer.Stop()

	compileBoth(t, "gen-large.w2", wgen.SyntheticProgram(wgen.Large, 2), pool)
}

// TestAllWorkersDeadLocalFallback: with the whole cluster down, the pool
// must compile in-process and record the degradation, not error out.
func TestAllWorkersDeadLocalFallback(t *testing.T) {
	noAmbientDiskCache(t)
	ln, addr, err := cluster.ServeWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cluster.DialPoolWith([]string{addr}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ln.Close() // the fleet is gone

	stats := compileBoth(t, "user.w2", wgen.UserProgram(), pool)
	f := stats.Faults
	if f.LocalFallbacks < 1 {
		t.Errorf("expected local fallbacks with all workers dead, got %s", f)
	}
	if f.Quarantines < 1 {
		t.Errorf("dead worker was never quarantined: %s", f)
	}
	if len(f.Warnings) == 0 {
		t.Error("degraded compile recorded no warnings in ParallelStats")
	}
	if pool.Healthy() != 0 {
		t.Errorf("healthy = %d, want 0", pool.Healthy())
	}
}

// TestQuarantineAndReadmission: a worker that dies is quarantined; when it
// restarts on the same address the background probe readmits it and the
// pool goes back to remote compiles.
func TestQuarantineAndReadmission(t *testing.T) {
	noAmbientDiskCache(t)
	ln, addr, err := cluster.ServeWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cluster.DialPoolWith([]string{addr}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	src := wgen.UserProgram()
	if _, err := pool.Compile(context.Background(), core.CompileRequest{File: "user.w2", Source: src, Section: 1, Index: 0}); err != nil {
		t.Fatalf("healthy worker failed: %v", err)
	}

	ln.Close()
	// The next compile quarantines the worker and falls back locally.
	if _, err := pool.Compile(context.Background(), core.CompileRequest{File: "user.w2", Source: src, Section: 1, Index: 0}); err != nil {
		t.Fatalf("fallback compile failed: %v", err)
	}
	if f := pool.FaultStats(); f.Quarantines < 1 || f.LocalFallbacks < 1 {
		t.Fatalf("expected quarantine + local fallback, got %s", f)
	}

	// Restart the worker on the same address; its cache starts empty.
	ln2, _, err := cluster.ServeWorker(addr)
	if err != nil {
		t.Fatalf("restarting worker on %s: %v", addr, err)
	}
	defer ln2.Close()

	deadline := time.Now().Add(10 * time.Second)
	for pool.Healthy() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never readmitted: %s", pool.FaultStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	f := pool.FaultStats()
	if f.Readmissions < 1 {
		t.Fatalf("readmission not counted: %s", f)
	}

	// Remote service is back: no new local fallbacks.
	before := f.LocalFallbacks
	stats := compileBoth(t, "user.w2", src, pool)
	if stats.Faults.LocalFallbacks != before {
		t.Errorf("readmitted worker still compiled locally: %s", stats.Faults)
	}
}

// TestDegradedStart: DialPoolWith proceeds when only part of the fleet is
// reachable, and still refuses when none of it is.
func TestDegradedStart(t *testing.T) {
	noAmbientDiskCache(t)
	// Reserve then release a port to get an address with no listener.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	ln, liveAddr, err := cluster.ServeWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	opts := fastOpts()
	opts.DialRetry = -1 // keep the dead address dead
	pool, err := cluster.DialPoolWith([]string{deadAddr, liveAddr}, opts)
	if err != nil {
		t.Fatalf("degraded start refused: %v", err)
	}
	defer pool.Close()
	if pool.Workers() != 2 || pool.Healthy() != 1 {
		t.Errorf("workers=%d healthy=%d, want 2/1", pool.Workers(), pool.Healthy())
	}
	f := pool.FaultStats()
	if f.Quarantines != 1 || len(f.Warnings) == 0 {
		t.Errorf("degraded start not recorded: %s", f)
	}
	compileBoth(t, "user.w2", wgen.UserProgram(), pool)

	if _, err := cluster.DialPoolWith([]string{deadAddr}, opts); err == nil {
		t.Error("pool with zero reachable workers must refuse to start")
	}
}

// TestInjectedUnavailableFailsOver: a coded retryable error reply (the
// worker answering "unavailable", as a draining daemon does) must fail over
// to another worker rather than abort the compile.
func TestInjectedUnavailableFailsOver(t *testing.T) {
	noAmbientDiskCache(t)
	sick, sickAddr, err := chaos.Serve("127.0.0.1:0", 0, wire.Script(
		wire.Fault{Kind: wire.ErrorReply, Err: "warp-err:unavailable: injected by chaos"},
	))
	if err != nil {
		t.Fatal(err)
	}
	defer sick.Close()
	ln, okAddr, err := cluster.ServeWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	pool, err := cluster.DialPoolWith([]string{sickAddr, okAddr}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	stats := compileBoth(t, "user.w2", wgen.UserProgram(), pool)
	if stats.Faults.Failovers < 1 {
		t.Errorf("unavailable reply did not fail over: %s", stats.Faults)
	}
}

// TestFatalCompileErrorNotRetried: a deterministic worker answer (bad
// request, compile error) must be returned immediately — no retries, no
// local fallback that would mask the real diagnostic.
func TestFatalCompileErrorNotRetried(t *testing.T) {
	ln, addr, err := cluster.ServeWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	pool, err := cluster.DialPoolWith([]string{addr}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	_, err = pool.Compile(context.Background(), core.CompileRequest{
		File: "m.w2", Source: wgen.SyntheticProgram(wgen.Tiny, 1), Section: 9, Index: 0,
	})
	if err == nil || !strings.Contains(err.Error(), "no section 9") {
		t.Fatalf("remote error not propagated: %v", err)
	}
	if cluster.CodeOf(err) != cluster.CodeCompile {
		t.Errorf("compile failure not coded: %v", err)
	}
	f := pool.FaultStats()
	if f.Retries != 0 || f.LocalFallbacks != 0 {
		t.Errorf("deterministic failure was retried: %s", f)
	}
}

// TestDrainRefusalNotCountedTowardQuarantine is the regression test for the
// drain health-record bug: a worker answering drain-coded unavailability
// (the orderly "I am shutting down" refusal) must not accumulate strikes
// toward the quarantine threshold. Before the fix, the sequence
// [unavailable, one transient drop] put two strikes on the worker and
// quarantined it (QuarantineAfter = 2) even though only one genuine fault
// ever occurred — so a worker that completed its -grace drain and came back
// rejoined with a dirty record and was quarantined by the first blip.
func TestDrainRefusalNotCountedTowardQuarantine(t *testing.T) {
	noAmbientDiskCache(t)
	// Script: first call refused drain-coded, second call dropped (one real
	// transient fault), everything after passes. The chaos worker stays up
	// throughout, so every re-dial ping succeeds and the worker re-enters
	// rotation immediately — exactly a drain that finished between the
	// refusal and the pool's re-dial.
	srv, addr, err := chaos.Serve("127.0.0.1:0", 0, wire.Script(
		wire.Fault{Kind: wire.ErrorReply, Err: "warp-err:unavailable: worker: draining, not accepting new compiles"},
		wire.Fault{Kind: wire.Drop},
	))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	opts := fastOpts()
	opts.MaxRetries = 5
	opts.QuarantineAfter = 2
	pool, err := cluster.DialPoolWith([]string{addr}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	r, err := pool.Compile(context.Background(), core.CompileRequest{
		File: "user.w2", Source: wgen.UserProgram(), Section: 1, Index: 0,
	})
	if err != nil {
		t.Fatalf("compile through drain refusal + drop failed: %v", err)
	}
	if r == nil || r.Name == "" {
		t.Fatal("empty reply")
	}
	f := pool.FaultStats()
	if f.Quarantines != 0 {
		t.Errorf("drain-coded refusal counted toward quarantine threshold: %s", f)
	}
	if f.Retries < 2 {
		t.Errorf("expected the refusal and the drop to be retried, got %s", f)
	}
	if pool.Healthy() != 1 {
		t.Errorf("healthy = %d, want 1 (worker must rejoin with a clean record)", pool.Healthy())
	}
	if f.LocalFallbacks != 0 {
		t.Errorf("compile fell back locally instead of failing over on the worker: %s", f)
	}
	if f.BatchSplits != 0 {
		t.Errorf("a one-function unit was split: %s", f)
	}
}

// TestChaosSeededSoak runs a module through seeded random chaos (drops and
// delays) and requires the usual word-identical output — reproducible
// disorder, same answer.
func TestChaosSeededSoak(t *testing.T) {
	noAmbientDiskCache(t)
	plan := wire.Seeded(7, wire.Random{
		DropProb:  0.15,
		DelayProb: 0.2,
		Delay:     2 * time.Millisecond,
	})
	srv, addr, err := chaos.Serve("127.0.0.1:0", 0, plan)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, okAddr, err := cluster.ServeWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	pool, err := cluster.DialPoolWith([]string{addr, okAddr}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	compileBoth(t, "gen-medium.w2", wgen.SyntheticProgram(wgen.Medium, 3), pool)
	if plan.Calls() == 0 {
		t.Error("chaos plan saw no calls")
	}
}

// TestGracefulShutdownDrains: a worker server asked to shut down finishes
// the compiles it already accepted (no connection resets) and refuses new
// connections afterwards.
func TestGracefulShutdownDrains(t *testing.T) {
	srv, err := cluster.NewWorkerServer("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}

	// Four concurrent sessions, as four masters would open them.
	src := wgen.SyntheticProgram(wgen.Large, 2)
	const n = 4
	clients := make([]*rpc.Client, n)
	for i := range clients {
		c, err := rpc.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	results := make(chan error, n)
	for _, c := range clients {
		go func(c *rpc.Client) {
			var reply cluster.BatchReply
			results <- c.Call("Worker.CompileBatch", core.BatchRequest{
				File: "gen-large.w2", Source: src, Items: []core.BatchItem{{Section: 1, Index: 0}},
			}, &reply)
		}(c)
	}
	// Let the requests reach the worker, then ask it to drain. The grace
	// period is generous: the four Large compiles run serially on the
	// worker and race-instrumented runs slow each one down considerably.
	time.Sleep(50 * time.Millisecond)
	if err := srv.Shutdown(2 * time.Minute); err != nil {
		t.Errorf("shutdown did not drain: %v", err)
	}
	for i := 0; i < n; i++ {
		err := <-results
		// Compiles accepted before draining must finish; any that arrived
		// after draining began are refused with a coded unavailable error —
		// never a raw transport failure.
		if err != nil && cluster.CodeOf(err) != cluster.CodeUnavailable {
			t.Errorf("in-flight compile failed unexpectedly: %v", err)
		}
	}
	if _, err := net.DialTimeout("tcp", srv.Addr(), 500*time.Millisecond); err == nil {
		t.Error("worker still accepting connections after shutdown")
	}
}
