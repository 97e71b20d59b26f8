package cluster

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/fcache"
	"repro/internal/wgen"
)

// verifyAgainstSequential compiles src through the backend twice (cold and
// warm cache) and checks both outputs word-identical to the sequential
// compiler — the paper's correctness bar, now with caching in the loop.
func verifyAgainstSequential(t *testing.T, name string, src []byte, backend core.Backend) {
	t.Helper()
	seq, err := compiler.CompileModule(name, src, compiler.Options{})
	if err != nil {
		t.Fatalf("%s: sequential: %v", name, err)
	}
	for pass, label := range []string{"cold", "warm"} {
		par, _, err := core.ParallelCompile(name, src, backend, compiler.Options{})
		if err != nil {
			t.Fatalf("%s: parallel (%s): %v", name, label, err)
		}
		if err := core.VerifySameOutput(seq.Module, par.Module); err != nil {
			t.Errorf("%s: %s-cache output differs from sequential (pass %d): %v", name, label, pass, err)
		}
	}
}

// TestCachedLocalPoolMatchesSequential covers the acceptance matrix for the
// in-process pool: the user program plus one synthetic program per wgen
// size, all through one shared cache.
func TestCachedLocalPoolMatchesSequential(t *testing.T) {
	pool := NewLocalPool(4)
	verifyAgainstSequential(t, "user.w2", wgen.UserProgram(), pool)
	for _, size := range wgen.Sizes {
		verifyAgainstSequential(t, "gen-"+size.String()+".w2", wgen.SyntheticProgram(size, 1), pool)
	}
	s := pool.CacheStats()
	if s.Hits() == 0 {
		t.Errorf("shared cache recorded no hits across the matrix: %s", s)
	}
	// Warm passes answer from the object tier before IR is ever consulted
	// (the generated programs have no intra-section calls, the only thing
	// that reads a cached IR), so the expected tiers are frontend + object.
	if s.FrontendHits == 0 || s.ObjectHits == 0 {
		t.Errorf("expected hits in frontend and object tiers, got %s", s)
	}
}

// TestCachedRPCPoolMatchesSequential does the same over real net/rpc
// workers, and additionally checks the wire-level win: after the first
// request per (worker, module), masters send hashes instead of source.
func TestCachedRPCPoolMatchesSequential(t *testing.T) {
	// Without an ambient WARP_CACHE_DIR (CI sets one), or the master would
	// answer every warm pass itself and no hash-only request ever happens.
	t.Setenv(fcache.EnvCacheDir, "")
	var addrs []string
	for i := 0; i < 3; i++ {
		ln, addr, err := ServeWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs = append(addrs, addr)
	}
	pool, err := DialPool(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	verifyAgainstSequential(t, "user.w2", wgen.UserProgram(), pool)
	for _, size := range wgen.Sizes {
		verifyAgainstSequential(t, "gen-"+size.String()+".w2", wgen.SyntheticProgram(size, 1), pool)
	}

	s := pool.CacheStats()
	if s.Hits() == 0 {
		t.Errorf("worker caches recorded no hits: %s", s)
	}
	if s.RPCBytesSaved == 0 {
		t.Error("no RPC bytes saved — hash-only requests never happened")
	}
}

// TestSourceResentToSmallCacheWorker drives the re-send path: a worker
// whose cache budget is smaller than the module source can never keep it,
// so every hash-only request is answered missing-source and sent once more
// with the source. Repeated builds must still be word-identical to the
// sequential compiler.
func TestSourceResentToSmallCacheWorker(t *testing.T) {
	t.Setenv(fcache.EnvCacheDir, "")
	src := wgen.MixedProgram(4)
	srv, err := NewWorkerServer("127.0.0.1:0", int64(len(src)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool, err := DialPool([]string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	verifyAgainstSequential(t, "mixed.w2", src, pool)
	if s := pool.CacheStats(); s.SourcePushes == 0 {
		t.Errorf("no request was re-sent with its source: %s", s)
	}
}

// TestParallelStatsReportCacheCounters: ParallelCompile must surface the
// backend's cache effectiveness in its stats.
func TestParallelStatsReportCacheCounters(t *testing.T) {
	pool := NewLocalPool(4)
	src := wgen.UserProgram()
	if _, _, err := core.ParallelCompile("user.w2", src, pool, compiler.Options{}); err != nil {
		t.Fatal(err)
	}
	_, stats, err := core.ParallelCompile("user.w2", src, pool, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits() == 0 {
		t.Errorf("warm recompile reported no cache hits: %s", stats.Cache)
	}
}

// TestWorkerKilledMidCompile kills the only worker of a pool running with
// fault tolerance switched off and checks that both the pool and a full
// parallel compile fail cleanly (no hang, no corrupt output) — the paper's
// original failure story, still reachable when retries and the local
// fallback are disabled.
func TestWorkerKilledMidCompile(t *testing.T) {
	// An ambient disk cache (CI sets WARP_CACHE_DIR) would let the master
	// compile the module without the worker, hiding the failure under test.
	t.Setenv(fcache.EnvCacheDir, "")
	ln, addr, err := ServeWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := DialPoolWith([]string{addr}, PoolOptions{
		CallTimeout:     5 * time.Second,
		MaxRetries:      -1,
		DialRetry:       -1,
		DisableFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	src := wgen.UserProgram()
	// One request succeeds while the worker lives.
	if _, err := pool.Compile(context.Background(), core.CompileRequest{File: "user.w2", Source: src, Section: 1, Index: 0}); err != nil {
		t.Fatalf("healthy worker failed: %v", err)
	}

	// Kill the worker: the listener wrapper severs live connections too.
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() {
		_, _, err := core.ParallelCompile("user.w2", src, pool, compiler.Options{})
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("parallel compile succeeded against a dead worker")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("section master hung after worker death")
	}

	// Direct requests must also fail fast now.
	if _, err := pool.Compile(context.Background(), core.CompileRequest{File: "user.w2", Source: src, Section: 1, Index: 0}); err == nil {
		t.Error("pool.Compile succeeded against a dead worker")
	}
}

// TestCompileBatchVerifiesSourceHash: a compile request carrying full source
// under another module's hash must be refused as a bad request — not
// answered from the other module's cached frontend, and not stored under
// the wrong address.
func TestCompileBatchVerifiesSourceHash(t *testing.T) {
	w := NewWorker(0)
	srcA, srcB := wgen.SyntheticProgram(wgen.Tiny, 1), wgen.SmallFuncsProgram(2)
	hA := fcache.HashSource(srcA)
	item := []core.BatchItem{{Section: 1, Index: 0}}
	var reply BatchReply
	if err := w.CompileBatch(core.BatchRequest{File: "a.w2", Source: srcA, SourceHash: hA, Items: item}, &reply); err != nil {
		t.Fatalf("honest request failed: %v", err)
	}
	reply = BatchReply{}
	err := w.CompileBatch(core.BatchRequest{File: "b.w2", Source: srcB, SourceHash: hA, Items: item}, &reply)
	if CodeOf(err) != CodeBadRequest || transient(err) {
		t.Errorf("mislabelled source answered %v (replies %d), want a fatal bad request", err, len(reply.Replies))
	}
	if got, _ := w.cache.Source(hA); !bytes.Equal(got, srcA) {
		t.Error("mislabelled source replaced the stored source")
	}
}
