package cluster_test

// Batched-dispatch tests: multi-function CompileBatch units over real RPC
// workers and the LocalPool, policy equivalence (FCFS ≡ one request per
// function), and the failover loop (a transiently failed batch splits in
// half, a failed one-function unit retries, and both converge with
// word-identical output).

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cluster/chaos"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/wgen"
	"repro/internal/wire"
)

// compileBothWith compiles src sequentially and through the backend with an
// explicit dispatch policy, failing unless the outputs are word-identical.
func compileBothWith(t *testing.T, name string, src []byte, backend core.Backend, popts core.ParallelOptions) *core.ParallelStats {
	t.Helper()
	seq, err := compiler.CompileModule(name, src, compiler.Options{})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, stats, err := core.ParallelCompileWith(name, src, backend, compiler.Options{}, popts)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if err := core.VerifySameOutput(seq.Module, par.Module); err != nil {
		t.Errorf("output differs from sequential: %v", err)
	}
	return stats
}

// TestBatchDispatchRPC sends a module of 32 small functions through real
// RPC workers with the production defaults: the plan must pack them into
// multi-function batches, every batch must travel as one Worker.CompileBatch
// round trip, and the output must stay word-identical.
func TestBatchDispatchRPC(t *testing.T) {
	noAmbientDiskCache(t)
	var addrs []string
	for i := 0; i < 4; i++ {
		ln, addr, err := cluster.ServeWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs = append(addrs, addr)
	}
	pool, err := cluster.DialPoolWith(addrs, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	stats := compileBothWith(t, "small.w2", wgen.SmallFuncsProgram(32), pool, core.ParallelOptions{})
	d := stats.Dispatch
	if d.Batches == 0 || d.BatchedFuncs < 16 {
		t.Errorf("expected most of 32 small functions batched, got %+v", d)
	}
	if d.Units >= 32 {
		t.Errorf("batching should shrink 32 requests, got %d units", d.Units)
	}
	if stats.Faults.Any() {
		t.Errorf("healthy cluster reported faults: %s", stats.Faults)
	}
}

// TestFCFSPolicyIsPerFunction checks the fcfs policy reproduces the paper's
// measured system on the same cluster: one dispatch unit per function, no
// batches, and still word-identical output.
func TestFCFSPolicyIsPerFunction(t *testing.T) {
	noAmbientDiskCache(t)
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

	stats := compileBothWith(t, "small.w2", wgen.SmallFuncsProgram(12), pool,
		core.ParallelOptions{Sched: core.SchedFCFS})
	d := stats.Dispatch
	if d.Units != 12 || d.Batches != 0 || d.BatchedFuncs != 0 {
		t.Errorf("fcfs must dispatch per function: %+v", d)
	}
}

// TestLocalPoolBatch checks the in-process pool's CompileBatch path: a
// batch occupies one worker slot and the cached result matches sequential.
func TestLocalPoolBatch(t *testing.T) {
	noAmbientDiskCache(t)
	pool := cluster.NewLocalPool(2)
	stats := compileBothWith(t, "small.w2", wgen.SmallFuncsProgram(16), pool, core.ParallelOptions{})
	if stats.Dispatch.Batches == 0 {
		t.Errorf("expected batches on the local pool, got %+v", stats.Dispatch)
	}
}

// TestBatchSplitOnChaosFailure drives the batch failover path: both workers
// drop the connection under their first batch, so every initial batch fails
// transiently, splits in half, and retries until it converges — with output
// word-identical to sequential and the split recorded in the fault stats.
func TestBatchSplitOnChaosFailure(t *testing.T) {
	noAmbientDiskCache(t)
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, addr, err := chaos.Serve("127.0.0.1:0", 0, wire.Script(wire.Fault{Kind: wire.Drop}))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, addr)
	}
	opts := fastOpts()
	opts.MaxRetries = 8
	pool, err := cluster.DialPoolWith(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	stats := compileBothWith(t, "small.w2", wgen.SmallFuncsProgram(24), pool, core.ParallelOptions{})
	f := stats.Faults
	if f.BatchSplits < 1 {
		t.Errorf("expected at least one batch split, got %s", f)
	}
	if stats.Dispatch.Batches == 0 {
		t.Errorf("expected batched dispatch, got %+v", stats.Dispatch)
	}
}

// TestSingleFunctionUnitsRetryOnChaosFailure drives the other half of the
// failover loop: under FCFS every unit is one function, so a unit that
// fails transiently must retry on a worker — never split, never fall back
// in-process — and still yield word-identical output.
func TestSingleFunctionUnitsRetryOnChaosFailure(t *testing.T) {
	noAmbientDiskCache(t)
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, addr, err := chaos.Serve("127.0.0.1:0", 0, wire.Script(wire.Fault{Kind: wire.Drop}))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, addr)
	}
	opts := fastOpts()
	opts.MaxRetries = 8
	pool, err := cluster.DialPoolWith(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	stats := compileBothWith(t, "small.w2", wgen.SmallFuncsProgram(12), pool,
		core.ParallelOptions{Sched: core.SchedFCFS})
	f := stats.Faults
	if f.Retries < 1 {
		t.Errorf("expected the dropped units to be retried, got %s", f)
	}
	if f.BatchSplits != 0 || f.LocalFallbacks != 0 {
		t.Errorf("one-function units must retry remotely, not split or fall back: %s", f)
	}
}

// TestBatchFatalCompileErrorNotSplit checks determinism classification
// carries over to batches: a compile error inside a batch fails the whole
// compilation without any split-retry, because every worker would answer
// the same.
func TestBatchFatalCompileErrorNotSplit(t *testing.T) {
	noAmbientDiskCache(t)
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

	// The error is semantic, so the master's own phase 1 would catch it;
	// issue the batch directly to exercise the dispatch layer's
	// classification.
	src := []byte("module m (out ys: float[2])\nsection 1 of 1 {\n    function f() { send(Y, 1.0); }\n    function g() { undeclared = 1; send(Y, 2.0); }\n}\n")
	_, err = pool.CompileBatch(context.Background(), core.BatchRequest{
		File:   "bad.w2",
		Source: src,
		Items:  []core.BatchItem{{Section: 1, Index: 0}, {Section: 1, Index: 1}},
	})
	if err == nil {
		t.Fatal("expected compile error from batch")
	}
	if cluster.CodeOf(err) != cluster.CodeCompile {
		t.Errorf("expected coded compile error, got %v", err)
	}
	if f := pool.FaultStats(); f.BatchSplits != 0 || f.Retries != 0 {
		t.Errorf("deterministic batch error must not be retried or split: %s", f)
	}
}
