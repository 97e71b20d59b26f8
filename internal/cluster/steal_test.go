package cluster_test

// The dispatch fleet over real RPC workers: the one queue drives both pool
// kinds, and worker failures mid-dispatch fall into the existing
// retry/failover machinery — output stays word-identical to sequential
// throughout.

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/cluster/chaos"
	"repro/internal/core"
	"repro/internal/wgen"
	"repro/internal/wire"
)

// TestStealRPCSkewedParity runs a skewed workload — one heavy section and
// several near-empty ones — through real RPC workers with the production
// defaults: every section's units share one queue, so slots the near-empty
// sections leave free serve the heavy section's queued units, and the output
// must stay word-identical.
func TestStealRPCSkewedParity(t *testing.T) {
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

	stats := compileBothWith(t, "skew.w2", wgen.SkewedProgram(4, 8), pool, core.ParallelOptions{})
	if len(stats.Steal.IdleTime) != 4 {
		t.Errorf("idle decomposition has %d slots, want 4", len(stats.Steal.IdleTime))
	}
}

// TestStealLocalPoolSkewedParity covers the in-process pool on the same
// workload (the fleet is shared infrastructure, not an RPC feature).
func TestStealLocalPoolSkewedParity(t *testing.T) {
	pool := cluster.NewLocalPool(4)
	stats := compileBothWith(t, "skew.w2", wgen.SkewedProgram(4, 8), pool, core.ParallelOptions{})
	if len(stats.Steal.IdleTime) != 4 {
		t.Errorf("idle decomposition has %d slots, want 4", len(stats.Steal.IdleTime))
	}
}

// TestStealChaosWorkerDiesMidSteal is the fleet's chaos run: every worker
// drops its first connection, so queued units fail mid-flight and must retry
// or split through the fault layer. The build must converge word-identical with the
// recovery visible in the fault stats.
func TestStealChaosWorkerDiesMidSteal(t *testing.T) {
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

	stats := compileBothWith(t, "skew.w2", wgen.SkewedProgram(3, 6), pool, core.ParallelOptions{})
	if f := stats.Faults; f.Retries == 0 && f.BatchSplits == 0 && f.Failovers == 0 {
		t.Errorf("every worker dropped a connection; expected recovery activity, got %s", f)
	}
}
