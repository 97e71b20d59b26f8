package cluster_test

// Peer-tier tests at the cluster level: the distributed artifact store
// (internal/peercache) wired through pools, workers, and full parallel
// compiles. The acceptance bar is the same as every other tier's — output
// word-identical to the sequential compiler, under chaos included — plus
// the tentpole's specific wins: a cold restart that recompiles nothing, and
// peer trouble that never bleeds into compile-health quarantine.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/peercache"
	"repro/internal/wgen"
	"repro/internal/wire"
)

// warmLocalCache compiles src into a fresh local pool and returns that
// pool's cache — a warm peer's worth of object entries, ready to serve.
func warmLocalCache(t testing.TB, name string, src []byte) *cluster.LocalPool {
	t.Helper()
	pool := cluster.NewLocalPool(2)
	if _, _, err := core.ParallelCompile(name, src, pool, compiler.Options{}); err != nil {
		t.Fatalf("warming cache: %v", err)
	}
	return pool
}

// TestPeerColdRestartServesModule is the tentpole's headline scenario: a
// cold worker and a cold master, pointed at two warm peers, serve a whole
// previously compiled module without recompiling a single function and
// without a single source push — restart recovery is "sync 32-byte keys and
// fetch objects", not "recompile the world".
func TestPeerColdRestartServesModule(t *testing.T) {
	noAmbientDiskCache(t)
	src := wgen.SyntheticProgram(wgen.Small, 8)

	// Warm fleet: two workers with their own disk tiers, compiled through a
	// pool so the module's objects land across their caches.
	warmA, err := cluster.NewWorkerServerDir("127.0.0.1:0", 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer warmA.Close()
	warmB, err := cluster.NewWorkerServerDir("127.0.0.1:0", 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer warmB.Close()
	warmAddrs := []string{warmA.Addr(), warmB.Addr()}

	warmPool, err := cluster.DialPool(warmAddrs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.ParallelCompile("mod.w2", src, warmPool, compiler.Options{}); err != nil {
		t.Fatalf("warm compile: %v", err)
	}
	warmPool.Close()

	// Cold restart: a brand-new worker with an empty cache directory and a
	// brand-new master, both pointed at the warm pair as peers.
	coldWorker, err := cluster.NewWorkerServerPeers("127.0.0.1:0", 0, t.TempDir(), 1, warmAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coldWorker.Close()

	pool, err := cluster.DialPoolWith([]string{coldWorker.Addr()}, cluster.PoolOptions{
		Peers: warmAddrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	res, stats, err := core.ParallelCompile("mod.w2", src, pool, compiler.Options{})
	if err != nil {
		t.Fatalf("cold restart compile: %v", err)
	}
	if d := stats.Dispatch; d.RecompiledFuncs != 0 {
		t.Errorf("cold restart recompiled %d functions, want 0 (peers hold everything)", d.RecompiledFuncs)
	}
	s := pool.CacheStats()
	if s.SourcePushes != 0 {
		t.Errorf("cold restart pushed source %d times, want 0", s.SourcePushes)
	}
	if s.PeerHits == 0 && s.PeerPrefetched == 0 {
		t.Errorf("cold restart touched no peer: %s", s)
	}

	seq, err := compiler.CompileModule("mod.w2", src, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifySameOutput(seq.Module, res.Module); err != nil {
		t.Errorf("peer-filled output differs from sequential: %v", err)
	}
}

// TestPeerCorruptReplyNoQuarantine pins the health separation the package
// doc promises: a peer serving corrupt bytes is counted in PeerErrors and
// dropped as a transport, but the compile-health quarantine — which governs
// who may compile, a different capability entirely — must not move.
func TestPeerCorruptReplyNoQuarantine(t *testing.T) {
	noAmbientDiskCache(t)
	src := wgen.SyntheticProgram(wgen.Small, 6)

	// A warm cache behind a chaos peer server that corrupts every early
	// fetch (the client marks it dead on the first one it sees).
	warm := warmLocalCache(t, "mod.w2", src)
	corrupting := make([]wire.Fault, 16)
	for i := range corrupting {
		corrupting[i] = wire.Fault{Kind: wire.Corrupt}
	}
	psrv, paddr, err := peercache.Serve("127.0.0.1:0",
		peercache.NewService(warm.Cache(), "", wire.Script(corrupting...)))
	if err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()

	// One clean worker: the compile itself must go through untouched.
	ln, waddr, err := cluster.ServeWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	pool, err := cluster.DialPoolWith([]string{waddr}, cluster.PoolOptions{
		Peers: []string{paddr},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	res, _, err := core.ParallelCompile("mod.w2", src, pool, compiler.Options{})
	if err != nil {
		t.Fatalf("compile with corrupting peer: %v", err)
	}
	if s := pool.CacheStats(); s.PeerErrors == 0 {
		t.Errorf("corrupt peer replies not counted: %s", s)
	}
	if f := pool.FaultStats(); f.Quarantines != 0 {
		t.Errorf("peer corruption moved the compile-health quarantine: %s", f)
	}
	if pool.Healthy() != 1 {
		t.Errorf("healthy workers = %d, want 1 — the serving worker must stay admitted", pool.Healthy())
	}

	seq, err := compiler.CompileModule("mod.w2", src, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifySameOutput(seq.Module, res.Module); err != nil {
		t.Errorf("output differs from sequential after corrupt peer replies: %v", err)
	}
}

// TestPeerChaosParity runs the peer-chaos suite the tentpole is held to:
// hang, connection drop, corrupt reply, and every-peer-dead, each at worker
// counts 1, 2, 4, and 8, each compared word-for-word against the sequential
// compiler. The peer tier is an optimization; no fault in it may change a
// single output word.
func TestPeerChaosParity(t *testing.T) {
	noAmbientDiskCache(t)
	src := wgen.SyntheticProgram(wgen.Small, 8)
	seq, err := compiler.CompileModule("mod.w2", src, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm := warmLocalCache(t, "mod.w2", src)

	script := func(k wire.Kind, n int) *wire.Plan {
		fs := make([]wire.Fault, n)
		for i := range fs {
			fs[i] = wire.Fault{Kind: k}
		}
		return wire.Script(fs...)
	}
	scenarios := []struct {
		name string
		run  func(t *testing.T, workers int)
	}{
		{"hang", func(t *testing.T, workers int) {
			srv, addr, err := peercache.Serve("127.0.0.1:0",
				peercache.NewService(warm.Cache(), "", script(wire.Hang, 4)))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			compileWithPeers(t, seq.Module, src, workers, addr)
		}},
		{"drop", func(t *testing.T, workers int) {
			srv, addr, err := peercache.Serve("127.0.0.1:0",
				peercache.NewService(warm.Cache(), "", script(wire.Drop, 4)))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			compileWithPeers(t, seq.Module, src, workers, addr)
		}},
		{"corrupt", func(t *testing.T, workers int) {
			srv, addr, err := peercache.Serve("127.0.0.1:0",
				peercache.NewService(warm.Cache(), "", script(wire.Corrupt, 4)))
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			compileWithPeers(t, seq.Module, src, workers, addr)
		}},
		{"all-peers-dead", func(t *testing.T, workers int) {
			srvA, addrA, err := peercache.Serve("127.0.0.1:0", peercache.NewService(warm.Cache(), "", nil))
			if err != nil {
				t.Fatal(err)
			}
			srvB, addrB, err := peercache.Serve("127.0.0.1:0", peercache.NewService(warm.Cache(), "", nil))
			if err != nil {
				t.Fatal(err)
			}
			pc := peercache.New(peercache.ClientOptions{Timeout: 250 * time.Millisecond})
			defer pc.Close()
			pc.Connect(addrA, addrB)
			// Both peers die after the summary exchange claimed they hold
			// everything — every fetch must degrade to a local compile.
			srvA.Close()
			srvB.Close()
			pool := cluster.NewLocalPool(workers)
			pool.Cache().AttachPeers(pc)
			parityCompile(t, seq.Module, src, pool)
		}},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, sc := range scenarios {
			sc := sc
			w := workers
			t.Run(fmt.Sprintf("%s/workers=%d", sc.name, w), func(t *testing.T) { sc.run(t, w) })
		}
	}
}

// compileWithPeers builds a local pool of the given width attached to the
// given chaos peers and checks parity against the sequential compiler.
func compileWithPeers(t *testing.T, seq *link.Module, src []byte, workers int, peerAddrs ...string) {
	t.Helper()
	pc := peercache.New(peercache.ClientOptions{Timeout: 250 * time.Millisecond})
	defer pc.Close()
	pc.Connect(peerAddrs...)
	pool := cluster.NewLocalPool(workers)
	pool.Cache().AttachPeers(pc)
	parityCompile(t, seq, src, pool)
}

func parityCompile(t *testing.T, seq *link.Module, src []byte, pool *cluster.LocalPool) {
	t.Helper()
	res, _, err := core.ParallelCompile("mod.w2", src, pool, compiler.Options{})
	if err != nil {
		t.Fatalf("parallel compile under peer chaos: %v", err)
	}
	if err := core.VerifySameOutput(seq, res.Module); err != nil {
		t.Errorf("output differs from sequential: %v", err)
	}
}

// BenchmarkPeerColdStart measures the tentpole's perf claim on the wgen
// mixed workload (one huge function plus a tail of tiny ones): a cold
// process next to two warm peers (peer-fill) against a cold process alone
// (recompile-the-world).
func BenchmarkPeerColdStart(b *testing.B) {
	b.Setenv("WARP_CACHE_DIR", "")
	src := wgen.MixedProgram(12)

	warmA := warmLocalCache(b, "mixed.w2", src)
	warmB := warmLocalCache(b, "mixed.w2", src)
	srvA, addrA, err := peercache.Serve("127.0.0.1:0", peercache.NewService(warmA.Cache(), "", nil))
	if err != nil {
		b.Fatal(err)
	}
	defer srvA.Close()
	srvB, addrB, err := peercache.Serve("127.0.0.1:0", peercache.NewService(warmB.Cache(), "", nil))
	if err != nil {
		b.Fatal(err)
	}
	defer srvB.Close()

	b.Run("peer-fill", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pc := peercache.New(peercache.ClientOptions{})
			pc.Connect(addrA, addrB)
			pool := cluster.NewLocalPool(4)
			pool.Cache().AttachPeers(pc)
			if _, _, err := core.ParallelCompile("mixed.w2", src, pool, compiler.Options{}); err != nil {
				b.Fatal(err)
			}
			pc.Close()
		}
	})
	b.Run("recompile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pool := cluster.NewLocalPool(4)
			if _, _, err := core.ParallelCompile("mixed.w2", src, pool, compiler.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
