package service

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/link"
	"repro/internal/peercache"
	"repro/internal/wgen"
	"repro/internal/wire"
)

// TestTwoDaemonPeerSoak is the daemon-level soak of the peer tier, mirroring
// the warpd -peer-listen / -peers wiring end to end: daemon A compiles a
// module and serves its cache over the peer protocol; daemon B, federated to
// A, serves the same module by peer fill instead of recompiling; then A is
// killed while one of B's fetches is parked on a scripted hang — mid-fetch,
// by construction — and B must still answer a fresh job correctly by
// compiling locally. Invariants:
//
//   - B's first job fills from A (peer hits, nothing recompiled by hand
//     counting: word-identical output is the bar either way);
//   - killing A mid-fetch degrades to a local compile, never an error or a
//     wrong answer;
//   - after both daemons drain, goroutines settle to the baseline — the
//     severed peer connections and released hang leak nothing.
//
// CI runs this test under -race as the p2p soak step.
// serveDaemonManually is startDaemon without the cleanup-time Shutdown: the
// peer soak must drain its daemons inside the test body so the goroutine
// baseline check that follows sees a quiesced process.
func serveDaemonManually(t *testing.T, cfg Config) (*Daemon, string) {
	t.Helper()
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve(l)
	return d, l.Addr().String()
}

func TestTwoDaemonPeerSoak(t *testing.T) {
	noAmbientDiskCache(t)
	baseline := leakcheck.Take()

	srcA := wgen.SyntheticProgram(wgen.Small, 8)
	srcB := wgen.SyntheticProgram(wgen.Medium, 4)
	oracle := func(src []byte) *link.Module {
		seq, err := compiler.CompileModule("m.w2", src, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return seq.Module
	}
	oracleA, oracleB := oracle(srcA), oracle(srcB)

	// Daemon A: local pool, cache served over the peer protocol with a plan
	// that hangs the fourth fetch open-endedly — the fetch we kill A under.
	poolA := cluster.NewLocalPool(2)
	planA := wire.Script(
		wire.Fault{Kind: wire.Pass},
		wire.Fault{Kind: wire.Pass},
		wire.Fault{Kind: wire.Pass},
		wire.Fault{Kind: wire.Hang},
	)
	peerSrvA, peerAddrA, err := peercache.Serve("127.0.0.1:0", peercache.NewService(poolA.Cache(), "", planA))
	if err != nil {
		t.Fatal(err)
	}
	defer peerSrvA.Close()
	// Daemons are started by hand (not via startDaemon) so both can be shut
	// down inside the test body, before the goroutine-leak check runs.
	daemonA, addrA := serveDaemonManually(t, Config{Backend: poolA})

	// Warm A through its own front door, as a client would, before B
	// federates — the "second daemon coming up next to a warm one" story.
	clA, err := Dial(addrA)
	if err != nil {
		t.Fatal(err)
	}
	respA, err := clA.Compile(context.Background(), "m.w2", srcA, compiler.Options{}, core.ParallelOptions{})
	clA.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifySameOutput(oracleA, respA.Module); err != nil {
		t.Fatalf("daemon A output differs: %v", err)
	}

	// Daemon B: its own local pool, federated to A the way warpd -peers is.
	poolB := cluster.NewLocalPool(2)
	peersB := peercache.New(peercache.ClientOptions{Timeout: 500 * time.Millisecond})
	defer peersB.Close()
	if n := peersB.Connect(peerAddrA); n != 1 {
		t.Fatalf("daemon B connected %d peers, want 1", n)
	}
	poolB.Cache().AttachPeers(peersB)
	daemonB, addrB := serveDaemonManually(t, Config{Backend: poolB})

	// B serves the same module: the first three fetches pass, so B fills at
	// least part of the module from A; the fourth parks on the hang. While
	// it is parked, kill A — connection severed mid-fetch. B's job must
	// still complete, word-identical, by compiling whatever the fleet never
	// delivered. The fetches share one connection, so the kill also waits
	// for B to have received a passed fetch's reply: severing as soon as the
	// fourth fetch is decided can beat every reply onto the wire on a loaded
	// host, and then B never fills at all.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(5 * time.Second)
		for (planA.Calls() < 4 || poolB.CacheStats().PeerHits == 0) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		peerSrvA.Close() // kills the parked fetch's transport too
	}()

	clB, err := Dial(addrB)
	if err != nil {
		t.Fatal(err)
	}
	respB, err := clB.Compile(context.Background(), "m.w2", srcA, compiler.Options{}, core.ParallelOptions{})
	clB.Close()
	if err != nil {
		t.Fatalf("daemon B job during peer kill: %v", err)
	}
	if err := core.VerifySameOutput(oracleA, respB.Module); err != nil {
		t.Errorf("daemon B peer-filled output differs: %v", err)
	}
	<-killed
	if got := planA.Calls(); got < 4 {
		t.Errorf("peer plan saw %d fetches, want at least 4 (the kill happened too early)", got)
	}
	sB := poolB.CacheStats()
	if sB.PeerHits == 0 && sB.PeerPrefetched == 0 {
		t.Errorf("daemon B never filled from its peer: %s", sB)
	}
	if sB.PeerErrors == 0 {
		t.Errorf("the mid-fetch kill left no transport error: %s", sB)
	}

	// A fresh job against B with its only peer dead: pure local compile,
	// still word-identical, no hang.
	clB2, err := Dial(addrB)
	if err != nil {
		t.Fatal(err)
	}
	respB2, err := clB2.Compile(context.Background(), "m.w2", srcB, compiler.Options{}, core.ParallelOptions{})
	clB2.Close()
	if err != nil {
		t.Fatalf("daemon B job after peer death: %v", err)
	}
	if err := core.VerifySameOutput(oracleB, respB2.Module); err != nil {
		t.Errorf("daemon B post-kill output differs: %v", err)
	}

	// Drain both daemons (Shutdown's built-in check catches token leaks),
	// sever the peer client, and require the goroutine count to settle back
	// to the baseline.
	if err := daemonB.Shutdown(5 * time.Second); err != nil {
		t.Errorf("daemon B shutdown: %v", err)
	}
	if err := daemonA.Shutdown(5 * time.Second); err != nil {
		t.Errorf("daemon A shutdown: %v", err)
	}
	peersB.Close()
	peerSrvA.Close()
	baseline.Check(t)
}
